//! Expression evaluation.

use std::cell::{Cell, RefCell};

use crate::ast::{ColumnDef, ColumnRef, Expr, Select};
use crate::db::{Database, Session, SqlError};
use crate::value::Value;

/// The `(table alias, column)` names of a row's values, in order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Schema<'a> {
    /// Pairs built for a join, a derived table or a grouped row.
    Pairs(&'a [(String, String)]),
    /// One catalog table's columns under one alias, read from the catalog
    /// as they stand rather than copied into pairs per statement.
    Table {
        alias: &'a str,
        columns: &'a [ColumnDef],
    },
}

impl<'a> Schema<'a> {
    /// The `(alias, column)` names, in row order.
    pub fn names(self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let (pairs, alias, columns) = match self {
            Schema::Pairs(pairs) => (pairs, "", &[][..]),
            Schema::Table { alias, columns } => (&[][..], alias, columns),
        };
        pairs
            .iter()
            .map(|(alias, name)| (alias.as_str(), name.as_str()))
            .chain(columns.iter().map(move |c| (alias, c.name.as_str())))
    }

    /// Whether `col` names one of these columns.
    pub fn resolves(self, col: &ColumnRef) -> bool {
        self.names()
            .any(|(alias, name)| names_column(col, alias, name))
    }
}

/// Whether `col` (qualified or bare) names column `name` of `alias`.
fn names_column(col: &ColumnRef, alias: &str, name: &str) -> bool {
    name == col.column && col.table.as_ref().is_none_or(|t| t == alias)
}

/// A row environment: the schema naming the current row's values. `parent`
/// links to the outer query's environment for correlated subqueries.
pub(crate) struct Env<'a> {
    pub schema: Schema<'a>,
    pub row: &'a [Value],
    pub parent: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    pub fn lookup(&self, col: &ColumnRef) -> Option<Value> {
        for (i, (alias, name)) in self.schema.names().enumerate() {
            if names_column(col, alias, name) {
                // The row can be narrower than the schema when an aggregate
                // output row is evaluated against the source-table schema
                // (e.g. `SELECT COUNT(*) .. ORDER BY col`): treat the
                // unmaterialized column as unresolvable rather than panic.
                if let Some(v) = self.row.get(i) {
                    return Some(v.clone());
                }
            }
        }
        self.parent.and_then(|p| p.lookup(col))
    }
}

/// Shared, interior-mutable execution context for one statement.
pub(crate) struct ExecCtx<'a> {
    pub db: &'a Database,
    pub session: &'a Session,
    pub notices: RefCell<Vec<String>>,
    pub scanned: Cell<u64>,
}

impl<'a> ExecCtx<'a> {
    pub fn new(db: &'a Database, session: &'a Session) -> Self {
        Self {
            db,
            session,
            notices: RefCell::new(Vec::new()),
            scanned: Cell::new(0),
        }
    }

    pub fn notice(&self, text: String) {
        self.notices.borrow_mut().push(text);
    }

    pub fn charge_scan(&self, rows: u64) {
        self.scanned.set(self.scanned.get() + rows);
    }
}

/// Evaluates a scalar expression against a row environment.
pub(crate) fn eval(ctx: &ExecCtx<'_>, expr: &Expr, env: &Env<'_>) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(c) => env.lookup(c).map_or_else(
            || {
                if c.table.is_none() && c.column == "CURRENT_USER" {
                    Ok(Value::Text(ctx.session.user.to_ascii_lowercase()))
                } else {
                    Err(SqlError::Exec(format!(
                        "column {} does not exist",
                        match &c.table {
                            Some(t) => format!("{t}.{}", c.column),
                            None => c.column.clone(),
                        }
                    )))
                }
            },
            Ok,
        ),
        Expr::Binary { op, left, right } => {
            // Short-circuit three-valued logic for AND/OR.
            match op.as_ref() {
                "AND" => {
                    let l = eval(ctx, left, env)?;
                    if matches!(l, Value::Bool(false)) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval(ctx, right, env)?;
                    return Ok(match (l, r) {
                        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                        (_, Value::Bool(false)) => Value::Bool(false),
                        _ => Value::Null,
                    });
                }
                "OR" => {
                    let l = eval(ctx, left, env)?;
                    if matches!(l, Value::Bool(true)) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval(ctx, right, env)?;
                    return Ok(match (l, r) {
                        (_, Value::Bool(true)) => Value::Bool(true),
                        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                        _ => Value::Null,
                    });
                }
                _ => {}
            }
            let l = eval(ctx, left, env)?;
            let r = eval(ctx, right, env)?;
            eval_binary(ctx, op, l, r)
        }
        Expr::Unary { op, expr } => {
            let v = eval(ctx, expr, env)?;
            match *op {
                "NOT" => Ok(match v {
                    Value::Bool(b) => Value::Bool(!b),
                    Value::Null => Value::Null,
                    other => {
                        return Err(SqlError::Exec(format!(
                            "NOT applied to non-boolean {other}"
                        )))
                    }
                }),
                "-" => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    Value::Null => Ok(Value::Null),
                    other => Err(SqlError::Exec(format!("cannot negate {other}"))),
                },
                other => Err(SqlError::Exec(format!("unknown unary operator {other}"))),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(ctx, expr, env)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Between { expr, low, high } => {
            let v = eval(ctx, expr, env)?;
            let lo = eval(ctx, low, env)?;
            let hi = eval(ctx, high, env)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => Ok(Value::Bool(
                    a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater,
                )),
                _ => Ok(Value::Null),
            }
        }
        Expr::In {
            expr,
            list,
            subquery,
            negated,
        } => {
            let v = eval(ctx, expr, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            if let Some(sub) = subquery {
                let rows = run_subquery(ctx, sub, env)?;
                for row in &rows {
                    if v.sql_eq(row.first().unwrap_or(&Value::Null)) == Some(true) {
                        found = true;
                        break;
                    }
                }
            } else {
                for item in list {
                    let item = eval(ctx, item, env)?;
                    if v.sql_eq(&item) == Some(true) {
                        found = true;
                        break;
                    }
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Exists { subquery, negated } => {
            let rows = run_subquery(ctx, subquery, env)?;
            Ok(Value::Bool(rows.is_empty() == *negated))
        }
        Expr::Subquery(sub) => {
            let rows = run_subquery(ctx, sub, env)?;
            match rows.first() {
                Some(row) => Ok(row.first().cloned().unwrap_or(Value::Null)),
                None => Ok(Value::Null),
            }
        }
        Expr::Case { arms, otherwise } => {
            for (cond, result) in arms {
                if eval(ctx, cond, env)?.is_truthy() {
                    return eval(ctx, result, env);
                }
            }
            match otherwise {
                Some(e) => eval(ctx, e, env),
                None => Ok(Value::Null),
            }
        }
        Expr::Call { name, args } => eval_call(ctx, name, args, env),
        Expr::Aggregate { name, .. } => Err(SqlError::Exec(format!(
            "aggregate {name} used outside of a grouped context"
        ))),
        Expr::Param(i) => Err(SqlError::Exec(format!("unbound parameter ${i}"))),
    }
}

fn run_subquery(
    ctx: &ExecCtx<'_>,
    sub: &Select,
    env: &Env<'_>,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let result = crate::exec::run_select(ctx, sub, Some(env))?;
    Ok(result.rows)
}

fn eval_binary(ctx: &ExecCtx<'_>, op: &str, l: Value, r: Value) -> Result<Value, SqlError> {
    match op {
        "=" => Ok(tri(l.sql_eq(&r))),
        "<>" | "!=" => Ok(tri(l.sql_eq(&r).map(|b| !b))),
        "<" => Ok(tri(l.sql_cmp(&r).map(|o| o == std::cmp::Ordering::Less))),
        "<=" => Ok(tri(l.sql_cmp(&r).map(|o| o != std::cmp::Ordering::Greater))),
        ">" => Ok(tri(l.sql_cmp(&r).map(|o| o == std::cmp::Ordering::Greater))),
        ">=" => Ok(tri(l.sql_cmp(&r).map(|o| o != std::cmp::Ordering::Less))),
        "+" | "-" | "*" | "/" | "%" => arith(op, l, r),
        "||" => {
            if l.is_null() || r.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Text(format!("{l}{r}")))
            }
        }
        "LIKE" => {
            let (Value::Text(s), Value::Text(p)) = (&l, &r) else {
                return Ok(Value::Null);
            };
            Ok(Value::Bool(like_match(s.as_bytes(), p.as_bytes())))
        }
        custom => {
            // User-defined operator: resolve to its implementing function.
            let f = ctx
                .db
                .operator_function(custom)
                .ok_or_else(|| SqlError::Exec(format!("operator does not exist: {custom}")))?;
            crate::db::call_pl_function(ctx, &f, &[l, r])
        }
    }
}

fn tri(v: Option<bool>) -> Value {
    match v {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn arith(op: &str, l: Value, r: Value) -> Result<Value, SqlError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        return match op {
            "+" => Ok(Value::Int(a.wrapping_add(*b))),
            "-" => Ok(Value::Int(a.wrapping_sub(*b))),
            "*" => Ok(Value::Int(a.wrapping_mul(*b))),
            "/" => {
                if *b == 0 {
                    Err(SqlError::Exec("division by zero".into()))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            "%" => {
                if *b == 0 {
                    Err(SqlError::Exec("division by zero".into()))
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = (
        l.as_f64()
            .ok_or_else(|| SqlError::Exec(format!("non-numeric operand {l}")))?,
        r.as_f64()
            .ok_or_else(|| SqlError::Exec(format!("non-numeric operand {r}")))?,
    );
    match op {
        "+" => Ok(Value::Float(a + b)),
        "-" => Ok(Value::Float(a - b)),
        "*" => Ok(Value::Float(a * b)),
        "/" => {
            if b == 0.0 {
                Err(SqlError::Exec("division by zero".into()))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        "%" => Ok(Value::Float(a % b)),
        _ => unreachable!(),
    }
}

/// SQL `LIKE`: `%` matches any run, `_` matches one character.
pub(crate) fn like_match(s: &[u8], p: &[u8]) -> bool {
    match p.first() {
        None => s.is_empty(),
        Some(b'%') => (0..=s.len()).any(|k| like_match(&s[k..], &p[1..])),
        Some(b'_') => !s.is_empty() && like_match(&s[1..], &p[1..]),
        Some(&c) => s.first() == Some(&c) && like_match(&s[1..], &p[1..]),
    }
}

fn eval_call(
    ctx: &ExecCtx<'_>,
    name: &str,
    args: &[Expr],
    env: &Env<'_>,
) -> Result<Value, SqlError> {
    let vals: Vec<Value> = args
        .iter()
        .map(|a| eval(ctx, a, env))
        .collect::<Result<_, _>>()?;
    match name {
        "COALESCE" => Ok(vals
            .into_iter()
            .find(|v| !v.is_null())
            .unwrap_or(Value::Null)),
        "LENGTH" => match vals.first() {
            Some(Value::Text(s)) => Ok(Value::Int(s.chars().count() as i64)),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(SqlError::Exec(format!("length of non-text {other}"))),
        },
        "UPPER" => text_fn(&vals, |s| s.to_uppercase()),
        "LOWER" => text_fn(&vals, |s| s.to_lowercase()),
        "ABS" => match vals.first() {
            Some(Value::Int(i)) => Ok(Value::Int(i.abs())),
            Some(Value::Float(f)) => Ok(Value::Float(f.abs())),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(SqlError::Exec(format!("abs of non-number {other}"))),
        },
        "ROUND" => {
            let x = vals
                .first()
                .and_then(Value::as_f64)
                .ok_or_else(|| SqlError::Exec("round needs a number".into()))?;
            let digits = vals.get(1).and_then(Value::as_i64).unwrap_or(0);
            let scale = 10f64.powi(digits as i32);
            Ok(Value::Float((x * scale).round() / scale))
        }
        "EXTRACT_YEAR" => match vals.first() {
            Some(Value::Text(s)) if s.len() >= 4 => s[..4]
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| SqlError::Exec(format!("cannot extract year from {s:?}"))),
            _ => Ok(Value::Null),
        },
        "SUBSTRING" => {
            let Some(Value::Text(s)) = vals.first() else {
                return Ok(Value::Null);
            };
            let from = vals.get(1).and_then(Value::as_i64).unwrap_or(1).max(1) as usize;
            let chars: Vec<char> = s.chars().collect();
            let start = from - 1;
            let len = vals
                .get(2)
                .and_then(Value::as_i64)
                .map(|l| l.max(0) as usize)
                .unwrap_or(chars.len().saturating_sub(start));
            let out: String = chars.iter().skip(start).take(len).collect();
            Ok(Value::Text(out))
        }
        other => {
            // User-defined function call.
            if let Some(f) = ctx.db.function(other) {
                return crate::db::call_pl_function(ctx, &f, &vals);
            }
            Err(SqlError::Exec(format!("function does not exist: {other}")))
        }
    }
}

fn text_fn(vals: &[Value], f: impl Fn(&str) -> String) -> Result<Value, SqlError> {
    match vals.first() {
        Some(Value::Text(s)) => Ok(Value::Text(f(s))),
        Some(Value::Null) | None => Ok(Value::Null),
        Some(other) => Err(SqlError::Exec(format!("text function on {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_patterns() {
        assert!(like_match(b"PROMO BRUSHED", b"PROMO%"));
        assert!(like_match(b"abc", b"a_c"));
        assert!(!like_match(b"abc", b"a_d"));
        assert!(like_match(b"", b"%"));
        assert!(like_match(b"special%case", b"special%case"));
    }
}
