//! `SELECT` execution: name resolution, the access path, join planning
//! with predicate pushdown and hash lookups, grouping/aggregation,
//! ordering, and subquery support.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{ColumnRef, Expr, OrderKey, Select, SelectItem, TableRef};
use crate::db::SqlError;
use crate::eval::{eval, is_current_user, no_such_column, Env, ExecCtx, Schema};
use crate::value::Value;

/// The rows and column names produced by a `SELECT`.
#[derive(Debug, Clone)]
pub(crate) struct SelectResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

/// One source of a join: its column names, then its rows.
struct Source<'s> {
    tref: &'s TableRef,
    cols: Vec<String>,
    rows: Vec<Vec<Value>>,
}

/// The catalog table a `SELECT` reads when it reads one alone: the shape
/// whose `WHERE` can pin the table's key.
pub(crate) fn single_table(select: &Select) -> Option<&TableRef> {
    match select.from.as_slice() {
        [t] if t.subquery.is_none() && t.left_join_on.is_none() => Some(t),
        _ => None,
    }
}

/// Runs a `SELECT`, optionally inside an outer row context (correlated
/// subquery support).
pub(crate) fn run_select(
    ctx: &ExecCtx<'_>,
    select: &Select,
    outer: Option<&Env<'_>>,
) -> Result<SelectResult, SqlError> {
    // ---- names -------------------------------------------------------------
    // Every column the statement names resolves before a row is read: in its
    // sources (catalog columns, a derived table's output), among the output
    // names (ORDER BY), or in an enclosing query — Postgres errors at plan
    // time, whatever the table holds.
    let single = single_table(select);
    let mut sources = Vec::new();
    let mut pairs = Vec::new();
    let schema = match single {
        Some(t) => Schema::Table {
            alias: &t.alias,
            columns: ctx.db.readable_columns(ctx, &t.name)?,
        },
        None => {
            for tref in &select.from {
                let source = source_names(ctx, tref, outer)?;
                pairs.extend(source.cols.iter().map(|c| (tref.alias.clone(), c.clone())));
                sources.push(source);
            }
            Schema::Pairs(&pairs)
        }
    };
    let items = expand_items(&select.items, schema);
    let columns: Vec<String> = items.iter().map(output_name).collect();
    let named = items
        .iter()
        .filter_map(|i| i.expr.as_ref())
        .chain(&select.where_clause)
        .chain(select.from.iter().filter_map(|t| t.left_join_on.as_ref()))
        .chain(&select.group_by)
        .chain(&select.having)
        .chain(
            select
                .order_by
                .iter()
                .map(|k| &k.expr)
                .filter(|e| !names_output(e, &columns)),
        );
    resolve(named, schema, outer)?;

    // ---- rows: the access path, then WHERE ----------------------------------
    let rows = match single {
        Some(t) => {
            let key = ctx
                .db
                .pinned_key(&t.name, &t.alias, select.where_clause.as_ref());
            let mut rows = ctx.db.visible_rows(ctx, &t.name, key)?;
            if let Some(w) = &select.where_clause {
                ctx.db.leak_probe(ctx, &t.name, &t.alias, w)?;
                retain_ok(&mut rows, |row| {
                    passes(ctx, w, &Env::new(schema, row, outer))
                })?;
            }
            rows
        }
        None => join(ctx, select, &mut sources, &pairs, outer)?,
    };

    // ---- projection --------------------------------------------------------
    let grouped = !select.group_by.is_empty()
        || items
            .iter()
            .any(|i| i.expr.as_ref().is_some_and(contains_aggregate))
        || select.having.as_ref().is_some_and(contains_aggregate);
    // ORDER BY evaluates its keys on the rows behind each output row.
    let ordered = !select.order_by.is_empty();
    let mut contexts: Vec<Vec<Vec<Value>>> = Vec::new();
    let mut output = if grouped {
        let mut groups: Vec<Vec<Vec<Value>>> = Vec::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for row in rows {
            let env = Env::new(schema, &row, outer);
            let mut key = String::new();
            for g in &select.group_by {
                key.push_str(&eval(ctx, g, &env)?.group_key());
                key.push('\u{1f}');
            }
            match index.get(&key) {
                Some(&i) => groups[i].push(row),
                None => {
                    index.insert(key, groups.len());
                    groups.push(vec![row]);
                }
            }
        }
        if groups.is_empty() && select.group_by.is_empty() {
            groups.push(Vec::new()); // global aggregate over 0 rows
        }
        let mut output = Vec::with_capacity(groups.len());
        for group_rows in groups {
            if let Some(having) = &select.having {
                if !eval_grouped(ctx, having, schema, &group_rows, outer)?.is_truthy() {
                    continue;
                }
            }
            output.push(project(&items, |e| {
                eval_grouped(ctx, e, schema, &group_rows, outer)
            })?);
            if ordered {
                contexts.push(group_rows);
            }
        }
        output
    } else {
        let mut rows = rows;
        for row in &mut rows {
            let env = Env::new(schema, row, outer);
            let out = project(&items, |e| eval(ctx, e, &env))?;
            let context = std::mem::replace(row, out);
            if ordered {
                contexts.push(vec![context]);
            }
        }
        rows
    };

    // ---- DISTINCT ----------------------------------------------------------
    if select.distinct {
        let mut seen = BTreeSet::new();
        let first: Vec<bool> = output
            .iter()
            .map(|out| {
                seen.insert(
                    out.iter()
                        .map(|v| v.group_key() + "\u{1f}")
                        .collect::<String>(),
                )
            })
            .collect();
        let mut keep = first.iter();
        output.retain(|_| keep.next() == Some(&true));
        let mut keep = first.iter();
        contexts.retain(|_| keep.next() == Some(&true));
    }

    // ---- ORDER BY ----------------------------------------------------------
    if ordered {
        let mut keyed = Vec::with_capacity(output.len());
        for (out, ctx_rows) in output.into_iter().zip(contexts) {
            let mut keys = Vec::with_capacity(select.order_by.len());
            for ok in &select.order_by {
                keys.push(order_key_value(
                    ctx, ok, &items, &columns, &out, schema, &ctx_rows, outer,
                )?);
            }
            keyed.push((keys, out));
        }
        keyed.sort_by(|a, b| {
            for (i, ok) in select.order_by.iter().enumerate() {
                let ord = a.0[i].total_cmp(&b.0[i]);
                let ord = if ok.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        output = keyed.into_iter().map(|(_, out)| out).collect();
    }

    // ---- LIMIT -------------------------------------------------------------
    if let Some(limit) = select.limit {
        output.truncate(limit as usize);
    }

    Ok(SelectResult {
        columns,
        rows: output,
    })
}

/// A source's column names; a derived table runs here to learn them.
fn source_names<'s>(
    ctx: &ExecCtx<'_>,
    tref: &'s TableRef,
    outer: Option<&Env<'_>>,
) -> Result<Source<'s>, SqlError> {
    if let Some(sub) = &tref.subquery {
        let result = run_select(ctx, sub, outer)?;
        return Ok(Source {
            tref,
            cols: result
                .columns
                .iter()
                .map(|c| c.to_ascii_uppercase())
                .collect(),
            rows: result.rows,
        });
    }
    let columns = ctx.db.readable_columns(ctx, &tref.name)?;
    Ok(Source {
        tref,
        cols: columns.iter().map(|c| c.name.clone()).collect(),
        rows: Vec::new(),
    })
}

/// Reads the catalog sources, then joins every source left to right,
/// applying each `WHERE` conjunct as soon as its columns are bound and the
/// rest (subqueries, aggregates) after the last.
fn join(
    ctx: &ExecCtx<'_>,
    select: &Select,
    sources: &mut [Source<'_>],
    pairs: &[(String, String)],
    outer: Option<&Env<'_>>,
) -> Result<Vec<Vec<Value>>, SqlError> {
    for source in sources.iter_mut() {
        if source.tref.subquery.is_none() {
            source.rows = ctx.db.visible_rows(ctx, &source.tref.name, None)?;
        }
    }
    // CVE leak hook: a vulnerable planner evaluates user-defined operators
    // over rows the caller may not see (see `Database::leak_probe`).
    if let Some(where_clause) = &select.where_clause {
        for tref in &select.from {
            if tref.subquery.is_none() {
                ctx.db
                    .leak_probe(ctx, &tref.name, &tref.alias, where_clause)?;
            }
        }
    }
    let conjuncts = select
        .where_clause
        .as_ref()
        .map(split_conjuncts)
        .unwrap_or_default();
    let mut applied = vec![false; conjuncts.len()];
    let mut rows: Vec<Vec<Value>> = vec![Vec::new()]; // one empty binding
    let mut bound = 0;
    for source in sources.iter() {
        let end = bound + source.cols.len();
        rows = join_step(
            ctx,
            &pairs[..bound],
            &pairs[..end],
            rows,
            source,
            &conjuncts,
            &mut applied,
            outer,
        )?;
        bound = end;
    }
    retain_ok(&mut rows, |row| {
        let env = Env::new(Schema::Pairs(pairs), row, outer);
        for (c, _) in conjuncts.iter().zip(&applied).filter(|(_, done)| !**done) {
            if !eval(ctx, c, &env)?.is_truthy() {
                return Ok(false);
            }
        }
        Ok(true)
    })?;
    Ok(rows)
}

/// Whether `row` of the one table passes every `AND` conjunct of
/// `where_clause`, judged in the join's order: the conjuncts on the table's
/// columns first, left to right, then the rest — subqueries, aggregates,
/// and conjuncts on constants or outer columns alone.
fn passes(ctx: &ExecCtx<'_>, where_clause: &Expr, env: &Env<'_>) -> Result<bool, SqlError> {
    let first = |c: &Expr| applies_at(c, Schema::Pairs(&[]), env.schema, env.parent);
    Ok(holds(ctx, where_clause, env, &first)? && holds(ctx, where_clause, env, &|c| !first(c))?)
}

/// Whether the join applies conjunct `c` at the step that binds the columns
/// `schema` adds to `before`: one without a subquery or an aggregate is
/// applied where its last column is bound.
fn applies_at(c: &Expr, before: Schema<'_>, schema: Schema<'_>, outer: Option<&Env<'_>>) -> bool {
    !contains_subquery(c)
        && !contains_aggregate(c)
        && bound(c, schema, outer)
        && !bound(c, before, outer)
}

/// Whether every column `expr` names is in `schema` or an enclosing query.
fn bound(expr: &Expr, schema: Schema<'_>, outer: Option<&Env<'_>>) -> bool {
    unknown_column(expr, &|c| resolvable(c, schema, outer)).is_none()
}

/// Whether every `AND` conjunct of `expr` that `pick` selects is true in
/// `env`, judged left to right up to the first that is not.
fn holds(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    env: &Env<'_>,
    pick: &dyn Fn(&Expr) -> bool,
) -> Result<bool, SqlError> {
    match expr {
        Expr::Binary { op, left, right } if op == "AND" => {
            Ok(holds(ctx, left, env, pick)? && holds(ctx, right, env, pick)?)
        }
        c if pick(c) => Ok(eval(ctx, c, env)?.is_truthy()),
        _ => Ok(true),
    }
}

/// Keeps the rows `keep` accepts, in order, failing on its first error.
pub(crate) fn retain_ok(
    rows: &mut Vec<Vec<Value>>,
    mut keep: impl FnMut(&[Value]) -> Result<bool, SqlError>,
) -> Result<(), SqlError> {
    let mut kept = 0;
    for i in 0..rows.len() {
        if keep(&rows[i])? {
            rows.swap(kept, i);
            kept += 1;
        }
    }
    rows.truncate(kept);
    Ok(())
}

/// `expr`'s `AND` conjuncts, left to right, borrowed.
fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary { op, left, right } if op == "AND" => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// Fails with Postgres's error on the first column `exprs` name that
/// neither `schema` nor an enclosing query has.
pub(crate) fn resolve<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    schema: Schema<'_>,
    outer: Option<&Env<'_>>,
) -> Result<(), SqlError> {
    for expr in exprs {
        if let Some(c) = unknown_column(expr, &|c| resolvable(c, schema, outer)) {
            return Err(no_such_column(c));
        }
    }
    Ok(())
}

/// The first column `expr` names that `known` rejects, left to right.
/// Columns inside subqueries are not `expr`'s: they resolve against the
/// subquery's own sources, or outward, when it runs.
pub(crate) fn unknown_column<'e>(
    expr: &'e Expr,
    known: &dyn Fn(&ColumnRef) -> bool,
) -> Option<&'e ColumnRef> {
    if let Expr::Column(c) = expr {
        return (!known(c)).then_some(c);
    }
    let mut found = None;
    expr.any_child(|child| {
        found = unknown_column(child, known);
        found.is_some()
    });
    found
}

fn contains_subquery(expr: &Expr) -> bool {
    matches!(
        expr,
        Expr::Subquery(_)
            | Expr::Exists { .. }
            | Expr::In {
                subquery: Some(_),
                ..
            }
    ) || expr.any_child(contains_subquery)
}

fn contains_aggregate(expr: &Expr) -> bool {
    matches!(expr, Expr::Aggregate { .. }) || expr.any_child(contains_aggregate)
}

/// Whether `expr` is a bare name of one of the output `columns`, which
/// ORDER BY may sort by.
fn names_output(expr: &Expr, columns: &[String]) -> bool {
    matches!(expr, Expr::Column(c) if c.table.is_none()
        && columns.iter().any(|name| name.eq_ignore_ascii_case(&c.column)))
}

fn resolvable(col: &ColumnRef, schema: Schema<'_>, outer: Option<&Env<'_>>) -> bool {
    if schema.resolves(col) || is_current_user(col) {
        return true;
    }
    match outer {
        Some(env) => resolvable(col, env.schema, env.parent),
        None => false,
    }
}

/// Joins `source` onto the accumulated binding rows, applying every WHERE
/// conjunct that becomes fully bound and using a hash lookup when an
/// equi-join condition is available. `old_schema` names the binding rows'
/// columns before the join, `schema` after it.
#[allow(clippy::too_many_arguments)]
fn join_step(
    ctx: &ExecCtx<'_>,
    old_schema: &[(String, String)],
    schema: &[(String, String)],
    bound_rows: Vec<Vec<Value>>,
    source: &Source<'_>,
    conjuncts: &[&Expr],
    applied: &mut [bool],
    outer: Option<&Env<'_>>,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let before = Schema::Pairs(old_schema);
    let newly: Vec<usize> = (0..conjuncts.len())
        .filter(|&i| !applied[i] && applies_at(conjuncts[i], before, Schema::Pairs(schema), outer))
        .collect();
    let keep = |row: &[Value]| -> Result<bool, SqlError> {
        let env = Env::new(Schema::Pairs(schema), row, outer);
        for &i in &newly {
            if !eval(ctx, conjuncts[i], &env)?.is_truthy() {
                return Ok(false);
            }
        }
        Ok(true)
    };

    // LEFT JOIN: evaluate ON per candidate, pad with NULLs when unmatched.
    if let Some(on) = &source.tref.left_join_on {
        let mut out = Vec::new();
        for row in &bound_rows {
            let mut matched = false;
            for srow in &source.rows {
                let mut combined = row.clone();
                combined.extend(srow.iter().cloned());
                let env = Env::new(Schema::Pairs(schema), &combined, outer);
                if eval(ctx, on, &env)?.is_truthy() {
                    matched = true;
                    out.push(combined);
                }
            }
            if !matched {
                let mut combined = row.clone();
                combined.extend(std::iter::repeat_n(Value::Null, source.cols.len()));
                out.push(combined);
            }
        }
        // Newly-bound conjuncts still apply (they filter the padded rows too).
        retain_ok(&mut out, keep)?;
        for &i in &newly {
            applied[i] = true;
        }
        return Ok(out);
    }

    // Equi-join opportunity: an equi-conjunct `source.col = bound_expr`.
    let mut hash_key: Option<(usize, &Expr)> = None; // (source col index, bound-side expr)
    for &i in &newly {
        if let Expr::Binary { op, left, right } = conjuncts[i] {
            if op == "=" {
                for (a, b) in [(left, right), (right, left)] {
                    if let Expr::Column(c) = a.as_ref() {
                        let source_col = source.cols.iter().position(|col| {
                            col == &c.column
                                && c.table.as_ref().is_none_or(|t| t == &source.tref.alias)
                        });
                        if let (Some(idx), true) = (source_col, bound(b, before, outer)) {
                            hash_key = Some((idx, b));
                            break;
                        }
                    }
                }
            }
        }
        if hash_key.is_some() {
            break;
        }
    }

    let mut out = Vec::new();
    if let Some((col_idx, bound_expr)) = hash_key {
        let mut index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (ri, srow) in source.rows.iter().enumerate() {
            index.entry(srow[col_idx].group_key()).or_default().push(ri);
        }
        for row in &bound_rows {
            let env = Env::new(Schema::Pairs(old_schema), row, outer);
            let key = eval(ctx, bound_expr, &env)?;
            if key.is_null() {
                continue;
            }
            if let Some(candidates) = index.get(&key.group_key()) {
                for &ri in candidates {
                    let mut combined = row.clone();
                    combined.extend(source.rows[ri].iter().cloned());
                    if keep(&combined)? {
                        out.push(combined);
                    }
                }
            }
        }
    } else {
        for row in &bound_rows {
            for srow in &source.rows {
                let mut combined = row.clone();
                combined.extend(srow.iter().cloned());
                if keep(&combined)? {
                    out.push(combined);
                }
            }
        }
    }
    for &i in &newly {
        applied[i] = true;
    }
    Ok(out)
}

/// The items with each `*` expanded against `schema` — the statement's own
/// items, unless one is a `*`.
fn expand_items<'i>(items: &'i [SelectItem], schema: Schema<'_>) -> Cow<'i, [SelectItem]> {
    if items.iter().all(|i| i.expr.is_some()) {
        return Cow::Borrowed(items);
    }
    let mut out = Vec::new();
    for item in items {
        match &item.expr {
            None => {
                for (alias, col) in schema.names() {
                    out.push(SelectItem {
                        expr: Some(Expr::Column(ColumnRef {
                            table: Some(alias.to_string()),
                            column: col.to_string(),
                        })),
                        alias: Some(col.to_string()),
                    });
                }
            }
            Some(_) => out.push(item.clone()),
        }
    }
    Cow::Owned(out)
}

/// One output row: `value` of each (expanded) item's expression.
fn project(
    items: &[SelectItem],
    mut value: impl FnMut(&Expr) -> Result<Value, SqlError>,
) -> Result<Vec<Value>, SqlError> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(value(
            item.expr.as_ref().expect("expanded items are exprs"),
        )?);
    }
    Ok(out)
}

fn output_name(item: &SelectItem) -> String {
    if let Some(alias) = &item.alias {
        return alias.to_ascii_lowercase();
    }
    match item.expr.as_ref() {
        Some(Expr::Column(c)) => c.column.to_ascii_lowercase(),
        Some(Expr::Aggregate { name, .. }) => name.to_ascii_lowercase(),
        _ => "?column?".to_string(),
    }
}

/// Evaluates an expression over a group by rewriting aggregate nodes into
/// literals and evaluating the residue on the group's first row.
fn eval_grouped(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    schema: Schema<'_>,
    group_rows: &[Vec<Value>],
    outer: Option<&Env<'_>>,
) -> Result<Value, SqlError> {
    let rewritten = rewrite_aggregates(ctx, expr, schema, group_rows, outer)?;
    let empty: Vec<Value> = Vec::new();
    let first = group_rows.first().map(Vec::as_slice).unwrap_or(&empty);
    let env = Env::new(schema, first, outer);
    eval(ctx, &rewritten, &env)
}

fn rewrite_aggregates(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    schema: Schema<'_>,
    rows: &[Vec<Value>],
    outer: Option<&Env<'_>>,
) -> Result<Expr, SqlError> {
    Ok(match expr {
        Expr::Aggregate {
            name,
            arg,
            distinct,
        } => Expr::Literal(compute_aggregate(
            ctx,
            name,
            arg.as_deref(),
            *distinct,
            schema,
            rows,
            outer,
        )?),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: op.clone(),
            left: Box::new(rewrite_aggregates(ctx, left, schema, rows, outer)?),
            right: Box::new(rewrite_aggregates(ctx, right, schema, rows, outer)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(rewrite_aggregates(ctx, expr, schema, rows, outer)?),
        },
        Expr::Between { expr, low, high } => Expr::Between {
            expr: Box::new(rewrite_aggregates(ctx, expr, schema, rows, outer)?),
            low: Box::new(rewrite_aggregates(ctx, low, schema, rows, outer)?),
            high: Box::new(rewrite_aggregates(ctx, high, schema, rows, outer)?),
        },
        Expr::Case { arms, otherwise } => Expr::Case {
            arms: arms
                .iter()
                .map(|(c, r)| {
                    Ok((
                        rewrite_aggregates(ctx, c, schema, rows, outer)?,
                        rewrite_aggregates(ctx, r, schema, rows, outer)?,
                    ))
                })
                .collect::<Result<_, SqlError>>()?,
            otherwise: match otherwise {
                Some(e) => Some(Box::new(rewrite_aggregates(ctx, e, schema, rows, outer)?)),
                None => None,
            },
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_aggregates(ctx, a, schema, rows, outer))
                .collect::<Result<_, _>>()?,
        },
        other => other.clone(),
    })
}

fn compute_aggregate(
    ctx: &ExecCtx<'_>,
    name: &str,
    arg: Option<&Expr>,
    distinct: bool,
    schema: Schema<'_>,
    rows: &[Vec<Value>],
    outer: Option<&Env<'_>>,
) -> Result<Value, SqlError> {
    let mut values = Vec::with_capacity(rows.len());
    for row in rows {
        let env = Env::new(schema, row, outer);
        match arg {
            Some(a) => values.push(eval(ctx, a, &env)?),
            None => values.push(Value::Int(1)), // COUNT(*)
        }
    }
    if distinct {
        let mut seen = std::collections::BTreeSet::new();
        values.retain(|v| seen.insert(v.group_key()));
    }
    match name {
        "COUNT" => {
            let count = if arg.is_some() {
                values.iter().filter(|v| !v.is_null()).count()
            } else {
                values.len()
            };
            Ok(Value::Int(count as i64))
        }
        "SUM" | "AVG" => {
            let nums: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
            if nums.is_empty() {
                return Ok(Value::Null);
            }
            let sum: f64 = nums.iter().sum();
            if name == "SUM" {
                // Keep integer sums integral.
                if values
                    .iter()
                    .all(|v| matches!(v, Value::Int(_) | Value::Null))
                {
                    Ok(Value::Int(sum as i64))
                } else {
                    Ok(Value::Float(sum))
                }
            } else {
                Ok(Value::Float(sum / nums.len() as f64))
            }
        }
        "MIN" | "MAX" => {
            let mut best: Option<Value> = None;
            for v in values {
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take = match v.sql_cmp(&b) {
                            Some(std::cmp::Ordering::Less) => name == "MIN",
                            Some(std::cmp::Ordering::Greater) => name == "MAX",
                            _ => false,
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        other => Err(SqlError::Exec(format!("unknown aggregate {other}"))),
    }
}

#[allow(clippy::too_many_arguments)]
fn order_key_value(
    ctx: &ExecCtx<'_>,
    key: &OrderKey,
    items: &[SelectItem],
    columns: &[String],
    out_row: &[Value],
    schema: Schema<'_>,
    ctx_rows: &[Vec<Value>],
    outer: Option<&Env<'_>>,
) -> Result<Value, SqlError> {
    // Ordinal: ORDER BY 2.
    if let Expr::Literal(Value::Int(n)) = &key.expr {
        let i = *n as usize;
        if i >= 1 && i <= out_row.len() {
            return Ok(out_row[i - 1].clone());
        }
    }
    // Output alias or column name.
    if let Expr::Column(c) = &key.expr {
        if c.table.is_none() {
            let lower = c.column.to_ascii_lowercase();
            if let Some(i) = columns.iter().position(|name| name == &lower) {
                // Prefer the projected value when the item isn't a plain
                // passthrough (aggregates, computed expressions).
                let passthrough = matches!(
                    items[i].expr.as_ref(),
                    Some(Expr::Column(cc)) if cc.column == c.column
                );
                if !passthrough {
                    return Ok(out_row[i].clone());
                }
            }
        }
    }
    eval_grouped(ctx, &key.expr, schema, ctx_rows, outer)
}
