use std::borrow::Cow;

use crate::value::{SqlType, Value};

/// A column reference, possibly qualified (`lineitem.l_quantity`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Table name or alias qualifier, upper-cased; `None` when bare.
    pub table: Option<String>,
    /// Column name, upper-cased.
    pub column: String,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference.
    Column(ColumnRef),
    /// Binary operation (built-in or user-defined operator).
    Binary {
        /// Operator symbol or keyword (`=`, `<=`, `AND`, `LIKE`, `>>>`, …):
        /// borrowed for built-ins, owned for user-defined operators.
        op: Cow<'static, str>,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation (`NOT`, `-`).
    Unary {
        /// Operator (`NOT` or `-`).
        op: &'static str,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
    },
    /// `expr [NOT] IN (list…)` or `expr [NOT] IN (SELECT …)`.
    In {
        /// Tested expression.
        expr: Box<Expr>,
        /// Explicit list, or `None` when a subquery is used.
        list: Vec<Expr>,
        /// Subquery source, when present.
        subquery: Option<Box<Select>>,
        /// `true` for `NOT IN`.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT …)`.
    Exists {
        /// The subquery.
        subquery: Box<Select>,
        /// `true` for `NOT EXISTS`.
        negated: bool,
    },
    /// A scalar subquery `(SELECT …)`.
    Subquery(Box<Select>),
    /// `CASE WHEN c THEN v [WHEN …] [ELSE e] END`.
    Case {
        /// `(condition, result)` arms.
        arms: Vec<(Expr, Expr)>,
        /// `ELSE` result.
        otherwise: Option<Box<Expr>>,
    },
    /// Function call (scalar builtins: `SUBSTRING`, `EXTRACT`, `COALESCE`…).
    Call {
        /// Function name, upper-cased.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Aggregate call (`SUM`, `COUNT`, `AVG`, `MIN`, `MAX`).
    Aggregate {
        /// Aggregate name, upper-cased.
        name: String,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
        /// `COUNT(DISTINCT x)`.
        distinct: bool,
    },
    /// Positional function parameter (`$1`) inside a UDF body.
    Param(usize),
}

impl Expr {
    /// A binary node for the built-in operator `op`.
    pub fn binary(op: &'static str, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op: Cow::Borrowed(op),
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Whether `f` holds for any direct child of this expression, tried
    /// left to right. A subquery is no child: it names its own scope.
    pub(crate) fn any_child<'e>(&'e self, mut f: impl FnMut(&'e Expr) -> bool) -> bool {
        match self {
            Expr::Binary { left, right, .. } => f(left) || f(right),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => f(expr),
            Expr::Between { expr, low, high } => f(expr) || f(low) || f(high),
            Expr::In { expr, list, .. } => f(expr) || list.iter().any(f),
            Expr::Case { arms, otherwise } => {
                arms.iter().any(|(c, r)| f(c) || f(r)) || otherwise.as_deref().is_some_and(f)
            }
            Expr::Call { args, .. } => args.iter().any(f),
            Expr::Aggregate { arg, .. } => arg.as_deref().is_some_and(f),
            Expr::Literal(_)
            | Expr::Column(_)
            | Expr::Exists { .. }
            | Expr::Subquery(_)
            | Expr::Param(_) => false,
        }
    }
}

/// One item in a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression, or `None` for bare `*`.
    pub expr: Option<Expr>,
    /// Output column name (`AS alias`), if given.
    pub alias: Option<String>,
}

/// A table source in `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name, upper-cased.
    pub name: String,
    /// Alias, upper-cased (defaults to the table name).
    pub alias: String,
    /// `LEFT JOIN … ON` condition attached to this source (`None` for the
    /// first table and comma-joined tables).
    pub left_join_on: Option<Expr>,
    /// A subquery source `(SELECT …) alias`.
    pub subquery: Option<Box<Select>>,
}

/// An `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression (may be an output-column ordinal `1`, `2`, …).
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// `DISTINCT`.
    pub distinct: bool,
    /// `FROM` sources (empty for `SELECT 1`).
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name, upper-cased.
    pub name: String,
    /// Column type.
    pub ty: SqlType,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT …`
    Select(Select),
    /// `EXPLAIN [(COSTS OFF)] SELECT …`
    Explain(Select),
    /// `CREATE TABLE name (cols…)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name [(cols)] VALUES (…), (…)`
    Insert {
        /// Table name.
        table: String,
        /// Explicit column list (empty = all, in definition order).
        columns: Vec<String>,
        /// Row tuples.
        rows: Vec<Vec<Expr>>,
    },
    /// `UPDATE t SET col = expr, … [WHERE …]`
    Update {
        /// Table name.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Filter.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE …]`
    Delete {
        /// Table name.
        table: String,
        /// Filter.
        where_clause: Option<Expr>,
    },
    /// `CREATE FUNCTION name(argtypes) RETURNS type AS 'body' LANGUAGE …`
    CreateFunction {
        /// Function name.
        name: String,
        /// Number of arguments.
        arg_count: usize,
        /// Raw body text.
        body: String,
    },
    /// `CREATE OPERATOR op (procedure=f, leftarg=…, rightarg=…, restrict=…)`
    CreateOperator {
        /// Operator symbol (e.g. `>>>`).
        symbol: String,
        /// Implementing function name.
        procedure: String,
        /// Restriction-selectivity estimator name, if declared.
        restrict: Option<String>,
    },
    /// `CREATE USER name` / `CREATE ROLE name`
    CreateUser {
        /// User name.
        name: String,
    },
    /// `GRANT SELECT ON t TO user`
    Grant {
        /// Table name.
        table: String,
        /// Grantee.
        user: String,
    },
    /// `ALTER TABLE t ENABLE ROW LEVEL SECURITY`
    EnableRls {
        /// Table name.
        table: String,
    },
    /// `CREATE POLICY p ON t USING (expr)`
    CreatePolicy {
        /// Policy name.
        name: String,
        /// Table name.
        table: String,
        /// Visibility predicate.
        using: Expr,
    },
    /// `SET key TO value` / `SET key = value`
    Set {
        /// Setting name, upper-cased.
        key: String,
        /// Raw value text.
        value: String,
    },
    /// `SHOW key`
    Show {
        /// Setting name, upper-cased.
        key: String,
    },
    /// `BEGIN` / `COMMIT` / `ROLLBACK` (transactions are no-ops in the sim).
    Transaction {
        /// The verb that was used.
        verb: String,
    },
}
