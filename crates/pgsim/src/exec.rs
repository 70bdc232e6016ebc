//! `SELECT` execution: join planning with predicate pushdown and hash
//! lookups, grouping/aggregation, ordering, and subquery support.

use std::collections::BTreeMap;

use crate::ast::{ColumnRef, Expr, OrderKey, Select, SelectItem, TableRef};
use crate::db::SqlError;
use crate::eval::{eval, Env, ExecCtx, Schema};
use crate::value::Value;

/// The rows and column names produced by a `SELECT`.
#[derive(Debug, Clone)]
pub(crate) struct SelectResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

/// One materialized `FROM` source.
struct Source {
    alias: String,
    cols: Vec<String>,
    rows: Vec<Vec<Value>>,
    left_join_on: Option<Expr>,
}

/// Runs a `SELECT`, optionally inside an outer row context (correlated
/// subquery support).
pub(crate) fn run_select(
    ctx: &ExecCtx<'_>,
    select: &Select,
    outer: Option<&Env<'_>>,
) -> Result<SelectResult, SqlError> {
    // ---- materialize FROM sources -----------------------------------------
    let mut sources = Vec::with_capacity(select.from.len());
    for tref in &select.from {
        sources.push(materialize(ctx, tref, outer)?);
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

    // ---- join with pushdown ------------------------------------------------
    let conjuncts = select
        .where_clause
        .as_ref()
        .map(split_conjuncts)
        .unwrap_or_default();
    let mut applied = vec![false; conjuncts.len()];

    let mut schema: Vec<(String, String)> = Vec::new();
    let mut rows: Vec<Vec<Value>> = vec![Vec::new()]; // one empty binding
    for source in &sources {
        rows = join_step(
            ctx,
            &mut schema,
            rows,
            source,
            &conjuncts,
            &mut applied,
            outer,
        )?;
    }

    // ---- residual filter (subquery conjuncts and anything unapplied) ------
    let mut filtered = Vec::with_capacity(rows.len());
    for row in rows {
        let env = Env {
            schema: Schema::Pairs(&schema),
            row: &row,
            parent: outer,
        };
        let mut keep = true;
        for (i, c) in conjuncts.iter().enumerate() {
            if applied[i] {
                continue;
            }
            if !eval(ctx, c, &env)?.is_truthy() {
                keep = false;
                break;
            }
        }
        if keep {
            filtered.push(row);
        }
    }
    let rows = filtered;

    // ---- projection --------------------------------------------------------
    let items = expand_items(&select.items, &schema);
    // Static column validation: even a zero-row scan must reject unknown
    // columns (Postgres errors at plan time).
    for item in &items {
        let mut refs = Vec::new();
        column_refs(
            item.expr.as_ref().expect("expanded items are exprs"),
            &mut refs,
        );
        for r in &refs {
            if !resolvable(r, &schema, outer) {
                return Err(SqlError::Exec(format!(
                    "column {} does not exist",
                    match &r.table {
                        Some(t) => format!("{}.{}", t.to_lowercase(), r.column.to_lowercase()),
                        None => r.column.to_lowercase(),
                    }
                )));
            }
        }
    }
    let columns: Vec<String> = items.iter().map(output_name).collect();
    let grouped = !select.group_by.is_empty()
        || items
            .iter()
            .any(|i| contains_aggregate(i.expr.as_ref().unwrap()))
        || select.having.as_ref().is_some_and(contains_aggregate);

    // Each output row keeps the context rows needed to evaluate ORDER BY.
    let mut output: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
    if grouped {
        let mut groups: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for row in rows {
            let env = Env {
                schema: Schema::Pairs(&schema),
                row: &row,
                parent: outer,
            };
            let mut key = String::new();
            for g in &select.group_by {
                key.push_str(&eval(ctx, g, &env)?.group_key());
                key.push('\u{1f}');
            }
            match index.get(&key) {
                Some(&i) => groups[i].1.push(row),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        if groups.is_empty() && select.group_by.is_empty() {
            groups.push((String::new(), Vec::new())); // global aggregate over 0 rows
        }
        for (_, group_rows) in groups {
            if let Some(having) = &select.having {
                let v = eval_grouped(ctx, having, &schema, &group_rows, outer)?;
                if !v.is_truthy() {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(items.len());
            for item in &items {
                out.push(eval_grouped(
                    ctx,
                    item.expr.as_ref().unwrap(),
                    &schema,
                    &group_rows,
                    outer,
                )?);
            }
            output.push((out, group_rows));
        }
    } else {
        for row in rows {
            let env = Env {
                schema: Schema::Pairs(&schema),
                row: &row,
                parent: outer,
            };
            let mut out = Vec::with_capacity(items.len());
            for item in &items {
                out.push(eval(ctx, item.expr.as_ref().unwrap(), &env)?);
            }
            output.push((out, vec![row]));
        }
    }

    // ---- DISTINCT ----------------------------------------------------------
    if select.distinct {
        let mut seen = std::collections::BTreeSet::new();
        output.retain(|(out, _)| {
            let key: String = out.iter().map(|v| v.group_key() + "\u{1f}").collect();
            seen.insert(key)
        });
    }

    // ---- ORDER BY ----------------------------------------------------------
    // (sort keys, (projected row, the context rows that produced it))
    type Keyed = Vec<(Vec<Value>, (Vec<Value>, Vec<Vec<Value>>))>;
    if !select.order_by.is_empty() {
        let mut keyed: Keyed = Vec::new();
        for (out, ctx_rows) in output {
            let mut keys = Vec::with_capacity(select.order_by.len());
            for ok in &select.order_by {
                keys.push(order_key_value(
                    ctx, ok, &items, &columns, &out, &schema, &ctx_rows, outer,
                )?);
            }
            keyed.push((keys, (out, ctx_rows)));
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
        output = keyed.into_iter().map(|(_, v)| v).collect();
    }

    // ---- LIMIT -------------------------------------------------------------
    if let Some(limit) = select.limit {
        output.truncate(limit as usize);
    }

    Ok(SelectResult {
        columns,
        rows: output.into_iter().map(|(o, _)| o).collect(),
    })
}

fn materialize(
    ctx: &ExecCtx<'_>,
    tref: &TableRef,
    outer: Option<&Env<'_>>,
) -> Result<Source, SqlError> {
    if let Some(sub) = &tref.subquery {
        let result = run_select(ctx, sub, outer)?;
        return Ok(Source {
            alias: tref.alias.clone(),
            cols: result
                .columns
                .iter()
                .map(|c| c.to_ascii_uppercase())
                .collect(),
            rows: result.rows,
            left_join_on: tref.left_join_on.clone(),
        });
    }
    let (cols, rows) = ctx.db.visible_rows(ctx, &tref.name)?;
    ctx.charge_scan(rows.len() as u64);
    Ok(Source {
        alias: tref.alias.clone(),
        cols,
        rows,
        left_join_on: tref.left_join_on.clone(),
    })
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

/// Collects the free column references of an expression. Columns used inside
/// subqueries are ignored (they resolve against the subquery's own sources or
/// correlate outward at eval time).
pub(crate) fn column_refs(expr: &Expr, out: &mut Vec<ColumnRef>) {
    match expr {
        Expr::Column(c) => out.push(c.clone()),
        Expr::Binary { left, right, .. } => {
            column_refs(left, out);
            column_refs(right, out);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => column_refs(expr, out),
        Expr::Between { expr, low, high } => {
            column_refs(expr, out);
            column_refs(low, out);
            column_refs(high, out);
        }
        Expr::In { expr, list, .. } => {
            column_refs(expr, out);
            for e in list {
                column_refs(e, out);
            }
        }
        Expr::Case { arms, otherwise } => {
            for (c, r) in arms {
                column_refs(c, out);
                column_refs(r, out);
            }
            if let Some(e) = otherwise {
                column_refs(e, out);
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                column_refs(a, out);
            }
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                column_refs(a, out);
            }
        }
        Expr::Literal(_) | Expr::Exists { .. } | Expr::Subquery(_) | Expr::Param(_) => {}
    }
}

fn contains_subquery(expr: &Expr) -> bool {
    match expr {
        Expr::Subquery(_) | Expr::Exists { .. } => true,
        Expr::In {
            subquery,
            list,
            expr,
            ..
        } => subquery.is_some() || contains_subquery(expr) || list.iter().any(contains_subquery),
        Expr::Binary { left, right, .. } => contains_subquery(left) || contains_subquery(right),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => contains_subquery(expr),
        Expr::Between { expr, low, high } => {
            contains_subquery(expr) || contains_subquery(low) || contains_subquery(high)
        }
        Expr::Case { arms, otherwise } => {
            arms.iter()
                .any(|(c, r)| contains_subquery(c) || contains_subquery(r))
                || otherwise.as_deref().is_some_and(contains_subquery)
        }
        Expr::Call { args, .. } => args.iter().any(contains_subquery),
        _ => false,
    }
}

pub(crate) fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::Aggregate { .. } => true,
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::Between { expr, low, high } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        Expr::Case { arms, otherwise } => {
            arms.iter()
                .any(|(c, r)| contains_aggregate(c) || contains_aggregate(r))
                || otherwise.as_deref().is_some_and(contains_aggregate)
        }
        Expr::Call { args, .. } => args.iter().any(contains_aggregate),
        Expr::In { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        _ => false,
    }
}

fn resolvable(col: &ColumnRef, schema: &[(String, String)], outer: Option<&Env<'_>>) -> bool {
    if Schema::Pairs(schema).resolves(col) {
        return true;
    }
    if col.table.is_none() && col.column == "CURRENT_USER" {
        return true;
    }
    match outer {
        Some(env) => env.schema.resolves(col) || resolvable(col, &[], env.parent),
        None => false,
    }
}

/// Joins `source` onto the accumulated binding rows, applying every WHERE
/// conjunct that becomes fully bound and using a hash lookup when an
/// equi-join condition is available.
#[allow(clippy::too_many_arguments)]
fn join_step(
    ctx: &ExecCtx<'_>,
    schema: &mut Vec<(String, String)>,
    bound_rows: Vec<Vec<Value>>,
    source: &Source,
    conjuncts: &[&Expr],
    applied: &mut [bool],
    outer: Option<&Env<'_>>,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let old_schema = schema.clone();
    for col in &source.cols {
        schema.push((source.alias.clone(), col.clone()));
    }

    // Which conjuncts become newly applicable once this source is bound?
    let mut newly: Vec<usize> = Vec::new();
    for (i, c) in conjuncts.iter().enumerate() {
        if applied[i] || contains_subquery(c) || contains_aggregate(c) {
            continue;
        }
        let mut refs = Vec::new();
        column_refs(c, &mut refs);
        let was_bound = refs.iter().all(|r| resolvable(r, &old_schema, outer));
        let now_bound = refs.iter().all(|r| resolvable(r, schema, outer));
        if now_bound && !was_bound {
            newly.push(i);
        }
    }

    // LEFT JOIN: evaluate ON per candidate, pad with NULLs when unmatched.
    if let Some(on) = &source.left_join_on {
        let mut out = Vec::new();
        for row in &bound_rows {
            let mut matched = false;
            for srow in &source.rows {
                let mut combined = row.clone();
                combined.extend(srow.iter().cloned());
                let env = Env {
                    schema: Schema::Pairs(schema),
                    row: &combined,
                    parent: outer,
                };
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
        let mut filtered = Vec::with_capacity(out.len());
        for row in out {
            let env = Env {
                schema: Schema::Pairs(schema),
                row: &row,
                parent: outer,
            };
            let mut keep = true;
            for &i in &newly {
                if !eval(ctx, conjuncts[i], &env)?.is_truthy() {
                    keep = false;
                    break;
                }
            }
            if keep {
                filtered.push(row);
            }
        }
        for &i in &newly {
            applied[i] = true;
        }
        return Ok(filtered);
    }

    // Equi-join opportunity: an equi-conjunct `source.col = bound_expr`.
    let mut hash_key: Option<(usize, Expr)> = None; // (source col index, bound-side expr)
    for &i in &newly {
        if let Expr::Binary { op, left, right } = &conjuncts[i] {
            if op == "=" {
                for (a, b) in [(left, right), (right, left)] {
                    if let Expr::Column(c) = a.as_ref() {
                        let source_col = source.cols.iter().position(|col| {
                            col == &c.column && c.table.as_ref().is_none_or(|t| t == &source.alias)
                        });
                        let mut brefs = Vec::new();
                        column_refs(b, &mut brefs);
                        let b_bound = brefs.iter().all(|r| resolvable(r, &old_schema, outer));
                        if let (Some(idx), true) = (source_col, b_bound) {
                            hash_key = Some((idx, (**b).clone()));
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
            let env = Env {
                schema: Schema::Pairs(&old_schema),
                row,
                parent: outer,
            };
            let key = eval(ctx, &bound_expr, &env)?;
            if key.is_null() {
                continue;
            }
            if let Some(candidates) = index.get(&key.group_key()) {
                for &ri in candidates {
                    let mut combined = row.clone();
                    combined.extend(source.rows[ri].iter().cloned());
                    let env = Env {
                        schema: Schema::Pairs(schema),
                        row: &combined,
                        parent: outer,
                    };
                    let mut keep = true;
                    for &i in &newly {
                        if !eval(ctx, conjuncts[i], &env)?.is_truthy() {
                            keep = false;
                            break;
                        }
                    }
                    if keep {
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
                let env = Env {
                    schema: Schema::Pairs(schema),
                    row: &combined,
                    parent: outer,
                };
                let mut keep = true;
                for &i in &newly {
                    if !eval(ctx, conjuncts[i], &env)?.is_truthy() {
                        keep = false;
                        break;
                    }
                }
                if keep {
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

/// Expands `*` items against the joined schema.
fn expand_items(items: &[SelectItem], schema: &[(String, String)]) -> Vec<SelectItem> {
    let mut out = Vec::new();
    for item in items {
        match &item.expr {
            None => {
                for (alias, col) in schema {
                    out.push(SelectItem {
                        expr: Some(Expr::Column(ColumnRef {
                            table: Some(alias.clone()),
                            column: col.clone(),
                        })),
                        alias: Some(col.clone()),
                    });
                }
            }
            Some(_) => out.push(item.clone()),
        }
    }
    out
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
    schema: &[(String, String)],
    group_rows: &[Vec<Value>],
    outer: Option<&Env<'_>>,
) -> Result<Value, SqlError> {
    let rewritten = rewrite_aggregates(ctx, expr, schema, group_rows, outer)?;
    let empty: Vec<Value> = Vec::new();
    let first = group_rows.first().map(Vec::as_slice).unwrap_or(&empty);
    let env = Env {
        schema: Schema::Pairs(schema),
        row: first,
        parent: outer,
    };
    eval(ctx, &rewritten, &env)
}

fn rewrite_aggregates(
    ctx: &ExecCtx<'_>,
    expr: &Expr,
    schema: &[(String, String)],
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
    schema: &[(String, String)],
    rows: &[Vec<Value>],
    outer: Option<&Env<'_>>,
) -> Result<Value, SqlError> {
    let mut values = Vec::with_capacity(rows.len());
    for row in rows {
        let env = Env {
            schema: Schema::Pairs(schema),
            row,
            parent: outer,
        };
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
    schema: &[(String, String)],
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
