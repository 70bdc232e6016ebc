//! Recursive-descent parser for the SQL subset.

use std::borrow::Cow;

use crate::ast::*;
use crate::db::SqlError;
use crate::lexer::{tokenize, Token};
use crate::value::{SqlType, Value};

/// Parses one statement (a trailing `;` is permitted).
///
/// # Errors
///
/// Returns [`SqlError::Parse`] on malformed input.
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
    };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if !p.at_end() {
        return Err(SqlError::Parse(format!(
            "trailing tokens after statement: {}",
            p.peek_text()
        )));
    }
    Ok(stmt)
}

/// Splits a multi-statement string on top-level `;` and parses each.
///
/// # Errors
///
/// Returns [`SqlError::Parse`] if any statement is malformed.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>, SqlError> {
    let tokens = tokenize(sql)?;
    let mut statements = Vec::new();
    for part in tokens.split(|t| t.is_sym(";")) {
        if part.is_empty() {
            continue;
        }
        let mut p = Parser {
            tokens: part,
            pos: 0,
        };
        statements.push(p.statement()?);
        if !p.at_end() {
            return Err(SqlError::Parse(format!(
                "trailing tokens after statement: {}",
                p.peek_text()
            )));
        }
    }
    Ok(statements)
}

struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
}

impl<'a> Parser<'_, 'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<Token<'a>> {
        self.tokens.get(self.pos + offset).copied()
    }

    /// Whether the next token is a word whose folded spelling `matches`.
    fn peek_keyword(&self, matches: fn(&str) -> bool) -> bool {
        self.peek().is_some_and(|t| matches(t.keyword().as_str()))
    }

    fn peek_text(&self) -> String {
        self.peek()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "<end>".into())
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, what: &str) -> SqlError {
        SqlError::Parse(format!("{what}, found {}", self.peek_text()))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_sym(sym)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), SqlError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{sym}'")))
        }
    }

    /// The next token's AST name, if it is a word. Otherwise an error
    /// naming the token before it when the input has run out, as the
    /// parser always has.
    fn expect_word(&mut self) -> Result<String, SqlError> {
        match self.bump().and_then(|t| t.name()) {
            Some(name) => Ok(name),
            None => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn expect_str(&mut self) -> Result<String, SqlError> {
        match self.bump().and_then(|t| t.text()) {
            Some(text) => Ok(text),
            None => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected string literal"))
            }
        }
    }

    // ---- statements ------------------------------------------------------

    fn statement(&mut self) -> Result<Statement, SqlError> {
        let Some(first) = self.peek() else {
            return Err(SqlError::Parse("empty statement".into()));
        };
        let head = first.keyword();
        match head.as_str() {
            "SELECT" => Ok(Statement::Select(self.select()?)),
            "EXPLAIN" => {
                self.bump();
                // Optional (COSTS OFF) style option list.
                if self.eat_sym("(") {
                    while !self.eat_sym(")") {
                        if self.bump().is_none() {
                            return Err(self.err("unterminated EXPLAIN options"));
                        }
                    }
                }
                Ok(Statement::Explain(self.select()?))
            }
            "CREATE" => self.create(),
            "DROP" => {
                self.bump();
                self.expect_kw("TABLE")?;
                let name = self.expect_word()?;
                Ok(Statement::DropTable { name })
            }
            "INSERT" => self.insert(),
            "UPDATE" => self.update(),
            "DELETE" => self.delete(),
            "GRANT" => {
                self.bump();
                self.expect_kw("SELECT")?;
                self.expect_kw("ON")?;
                self.eat_kw("TABLE");
                let table = self.expect_word()?;
                self.expect_kw("TO")?;
                let user = self.expect_word()?;
                Ok(Statement::Grant { table, user })
            }
            "ALTER" => {
                self.bump();
                self.expect_kw("TABLE")?;
                let table = self.expect_word()?;
                self.expect_kw("ENABLE")?;
                self.expect_kw("ROW")?;
                self.expect_kw("LEVEL")?;
                self.expect_kw("SECURITY")?;
                Ok(Statement::EnableRls { table })
            }
            "SET" => {
                self.bump();
                let mut key = self.expect_word()?;
                // Multi-word keys: SET client_min_messages, SET default_transaction_isolation
                while self.peek().is_some_and(|t| matches!(t, Token::Word { .. }))
                    && !self.peek().is_some_and(|t| t.is_kw("TO"))
                {
                    key.push('_');
                    key.push_str(&self.expect_word()?);
                }
                if !self.eat_kw("TO") && !self.eat_sym("=") {
                    return Err(self.err("expected TO or ="));
                }
                let value = match self.bump() {
                    Some(t @ Token::Word { .. }) => t.name().unwrap_or_default(),
                    Some(t @ Token::Str { .. }) => t.text().unwrap_or_default(),
                    Some(Token::Int(i)) => i.to_string(),
                    _ => return Err(self.err("expected setting value")),
                };
                Ok(Statement::Set { key, value })
            }
            "SHOW" => {
                self.bump();
                let key = self.expect_word()?;
                Ok(Statement::Show { key })
            }
            "BEGIN" | "COMMIT" | "ROLLBACK" | "END" => {
                self.bump();
                // Swallow modifiers like BEGIN TRANSACTION / BEGIN ISOLATION LEVEL ...
                while self.peek().is_some_and(|t| matches!(t, Token::Word { .. })) {
                    self.bump();
                }
                Ok(Statement::Transaction {
                    verb: head.as_str().to_string(),
                })
            }
            _ => Err(self.err("expected a statement keyword")),
        }
    }

    fn create(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            let name = self.expect_word()?;
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                let col = self.expect_word()?;
                let ty_word = self.expect_word()?;
                // Swallow precision like NUMERIC(15, 2).
                if self.eat_sym("(") {
                    while !self.eat_sym(")") {
                        if self.bump().is_none() {
                            return Err(self.err("unterminated type precision"));
                        }
                    }
                }
                // Swallow column constraints we don't enforce.
                while self.eat_kw("PRIMARY")
                    || self.eat_kw("KEY")
                    || self.eat_kw("NOT")
                    || self.eat_kw("NULL")
                    || self.eat_kw("UNIQUE")
                {}
                let ty = SqlType::parse(&ty_word)
                    .ok_or_else(|| SqlError::Parse(format!("unknown type {ty_word}")))?;
                columns.push(ColumnDef { name: col, ty });
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.eat_kw("FUNCTION") {
            let name = self.expect_word()?;
            self.expect_sym("(")?;
            let mut arg_count = 0;
            while !self.eat_sym(")") {
                match self.bump() {
                    Some(Token::Word { .. }) => arg_count += 1,
                    Some(Token::Sym(",")) => {}
                    _ => return Err(self.err("expected argument type")),
                }
            }
            self.expect_kw("RETURNS")?;
            let _ret = self.expect_word()?;
            self.expect_kw("AS")?;
            let body = self.expect_str()?;
            // Swallow trailing qualifiers: LANGUAGE plpgsql immutable etc.
            while self.peek().is_some_and(|t| matches!(t, Token::Word { .. })) {
                self.bump();
            }
            return Ok(Statement::CreateFunction {
                name,
                arg_count,
                body,
            });
        }
        if self.eat_kw("OPERATOR") {
            let symbol = match self.bump() {
                Some(Token::Sym(s)) => s.to_string(),
                _ => return Err(self.err("expected operator symbol")),
            };
            self.expect_sym("(")?;
            let mut procedure = None;
            let mut restrict = None;
            loop {
                let key = self.expect_word()?;
                self.expect_sym("=")?;
                let value = self.expect_word()?;
                match key.as_str() {
                    "PROCEDURE" | "FUNCTION" => procedure = Some(value),
                    "RESTRICT" => restrict = Some(value),
                    _ => {} // leftarg / rightarg: types are dynamic here
                }
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            let procedure =
                procedure.ok_or_else(|| SqlError::Parse("operator needs procedure=".into()))?;
            return Ok(Statement::CreateOperator {
                symbol,
                procedure,
                restrict,
            });
        }
        if self.eat_kw("USER") || self.eat_kw("ROLE") {
            let name = self.expect_word()?;
            return Ok(Statement::CreateUser { name });
        }
        if self.eat_kw("POLICY") {
            let name = self.expect_word()?;
            self.expect_kw("ON")?;
            let table = self.expect_word()?;
            // Optional FOR SELECT / TO role clauses.
            while !self.peek().is_some_and(|t| t.is_kw("USING")) {
                if self.bump().is_none() {
                    return Err(self.err("expected USING"));
                }
            }
            self.expect_kw("USING")?;
            self.expect_sym("(")?;
            let using = self.expr()?;
            self.expect_sym(")")?;
            return Ok(Statement::CreatePolicy { name, table, using });
        }
        Err(self.err("unsupported CREATE object"))
    }

    fn insert(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.expect_word()?;
        let mut columns = Vec::new();
        if self.eat_sym("(") {
            loop {
                columns.push(self.expect_word()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("UPDATE")?;
        let table = self.expect_word()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.expect_word()?;
            self.expect_sym("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.expect_word()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    // ---- SELECT ----------------------------------------------------------

    fn select(&mut self) -> Result<Select, SqlError> {
        self.expect_kw("SELECT")?;
        let mut select = Select {
            distinct: self.eat_kw("DISTINCT"),
            ..Select::default()
        };
        loop {
            if self.eat_sym("*") {
                select.items.push(SelectItem {
                    expr: None,
                    alias: None,
                });
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.expect_word()?)
                } else if self.peek_keyword(is_clause_keyword) {
                    None
                } else {
                    // Bare alias, but not a clause keyword.
                    let alias = self.peek().and_then(|t| t.name());
                    if alias.is_some() {
                        self.pos += 1;
                    }
                    alias
                };
                select.items.push(SelectItem {
                    expr: Some(expr),
                    alias,
                });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        if self.eat_kw("FROM") {
            loop {
                select.from.push(self.table_ref(false)?);
                loop {
                    if self.eat_kw("LEFT") {
                        self.eat_kw("OUTER");
                        self.expect_kw("JOIN")?;
                        select.from.push(self.table_ref(true)?);
                    } else if self.eat_kw("JOIN") || {
                        if self.eat_kw("INNER") {
                            self.expect_kw("JOIN")?;
                            true
                        } else {
                            false
                        }
                    } {
                        // INNER JOIN … ON cond desugars to a comma join with
                        // the condition folded into WHERE.
                        let mut t = self.table_ref(false)?;
                        self.expect_kw("ON")?;
                        let cond = self.expr()?;
                        t.left_join_on = None;
                        select.from.push(t);
                        select.where_clause = Some(match select.where_clause.take() {
                            Some(w) => Expr::binary("AND", w, cond),
                            None => cond,
                        });
                    } else {
                        break;
                    }
                }
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("WHERE") {
            let cond = self.expr()?;
            select.where_clause = Some(match select.where_clause.take() {
                Some(w) => Expr::binary("AND", w, cond),
                None => cond,
            });
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                select.group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            select.having = Some(self.expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                select.order_by.push(OrderKey { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            match self.bump() {
                Some(Token::Int(n)) if n >= 0 => select.limit = Some(n as u64),
                _ => return Err(self.err("expected LIMIT count")),
            }
        }
        Ok(select)
    }

    fn table_ref(&mut self, is_left_join: bool) -> Result<TableRef, SqlError> {
        let mut t = if self.eat_sym("(") {
            let sub = self.select()?;
            self.expect_sym(")")?;
            self.eat_kw("AS"); // optional before the mandatory alias
            let alias = self.expect_word()?;
            TableRef {
                name: alias.clone(),
                alias,
                left_join_on: None,
                subquery: Some(Box::new(sub)),
            }
        } else {
            let name = self.expect_word()?;
            let alias = if self.eat_kw("AS") {
                self.expect_word()?
            } else if self.peek_keyword(is_from_keyword) {
                name.clone()
            } else {
                match self.peek().and_then(|t| t.name()) {
                    Some(alias) => {
                        self.pos += 1;
                        alias
                    }
                    None => name.clone(),
                }
            };
            TableRef {
                name,
                alias,
                left_join_on: None,
                subquery: None,
            }
        };
        if is_left_join {
            self.expect_kw("ON")?;
            t.left_join_on = Some(self.expr()?);
        }
        Ok(t)
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary("OR", left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary("AND", left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.peek().is_some_and(|t| t.is_kw("NOT"))
            && self.peek_at(1).is_some_and(|t| t.is_kw("EXISTS"))
        {
            self.bump();
            self.bump();
            self.expect_sym("(")?;
            let sub = self.select()?;
            self.expect_sym(")")?;
            return Ok(Expr::Exists {
                subquery: Box::new(sub),
                negated: true,
            });
        }
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: "NOT",
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.additive()?;

        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN / IN / LIKE
        let negated = if self.peek().is_some_and(|t| t.is_kw("NOT"))
            && self
                .peek_at(1)
                .is_some_and(|t| t.is_kw("BETWEEN") || t.is_kw("IN") || t.is_kw("LIKE"))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            let between = Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: "NOT",
                    expr: Box::new(between),
                }
            } else {
                between
            });
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
                let sub = self.select()?;
                self.expect_sym(")")?;
                return Ok(Expr::In {
                    expr: Box::new(left),
                    list: Vec::new(),
                    subquery: Some(Box::new(sub)),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Expr::In {
                expr: Box::new(left),
                list,
                subquery: None,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            let like = Expr::binary("LIKE", left, pattern);
            return Ok(if negated {
                Expr::Unary {
                    op: "NOT",
                    expr: Box::new(like),
                }
            } else {
                like
            });
        }
        // Built-in comparison symbols and user-defined operators.
        if let Some(Token::Sym(s)) = self.peek() {
            if !matches!(s, "(" | ")" | "," | ";" | "." | "*" | "+" | "-" | "/" | "%") {
                self.bump();
                let right = self.additive()?;
                let op = match BUILTIN_COMPARISONS.into_iter().find(|&b| b == s) {
                    Some(builtin) => Cow::Borrowed(builtin),
                    None => Cow::Owned(s.to_string()),
                };
                return Ok(Expr::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                });
            }
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_sym("+") {
                "+"
            } else if self.eat_sym("-") {
                "-"
            } else if self.eat_sym("||") {
                "||"
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_sym("*") {
                "*"
            } else if self.eat_sym("/") {
                "/"
            } else if self.eat_sym("%") {
                "%"
            } else {
                break;
            };
            let right = self.unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat_sym("-") {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: "-",
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        match self.peek() {
            Some(Token::Int(i)) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(i)))
            }
            Some(Token::Float(f)) => {
                self.bump();
                Ok(Expr::Literal(Value::Float(f)))
            }
            Some(t @ Token::Str { .. }) => {
                self.bump();
                Ok(Expr::Literal(Value::Text(t.text().unwrap_or_default())))
            }
            Some(Token::Sym("(")) => {
                self.bump();
                if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
                    let sub = self.select()?;
                    self.expect_sym(")")?;
                    Ok(Expr::Subquery(Box::new(sub)))
                } else {
                    let inner = self.expr()?;
                    self.expect_sym(")")?;
                    Ok(inner)
                }
            }
            Some(t @ Token::Word { .. }) => self.word_expr(t),
            _ => Err(self.err("expected expression")),
        }
    }

    fn word_expr(&mut self, w: Token<'a>) -> Result<Expr, SqlError> {
        let keyword = w.keyword();
        match keyword.as_str() {
            "NULL" => {
                self.bump();
                return Ok(Expr::Literal(Value::Null));
            }
            "TRUE" => {
                self.bump();
                return Ok(Expr::Literal(Value::Bool(true)));
            }
            "FALSE" => {
                self.bump();
                return Ok(Expr::Literal(Value::Bool(false)));
            }
            "DATE" => {
                // `date 'YYYY-MM-DD'` literal.
                if let Some(Token::Str { .. }) = self.peek_at(1) {
                    self.bump();
                    let s = self.expect_str()?;
                    return Ok(Expr::Literal(Value::Text(s)));
                }
            }
            "CASE" => {
                self.bump();
                let mut arms = Vec::new();
                while self.eat_kw("WHEN") {
                    let cond = self.expr()?;
                    self.expect_kw("THEN")?;
                    let result = self.expr()?;
                    arms.push((cond, result));
                }
                let otherwise = if self.eat_kw("ELSE") {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                self.expect_kw("END")?;
                return Ok(Expr::Case { arms, otherwise });
            }
            "EXISTS" => {
                self.bump();
                self.expect_sym("(")?;
                let sub = self.select()?;
                self.expect_sym(")")?;
                return Ok(Expr::Exists {
                    subquery: Box::new(sub),
                    negated: false,
                });
            }
            "EXTRACT" => {
                self.bump();
                self.expect_sym("(")?;
                let field = self.expect_word()?;
                self.expect_kw("FROM")?;
                let arg = self.expr()?;
                self.expect_sym(")")?;
                return Ok(Expr::Call {
                    name: format!("EXTRACT_{field}"),
                    args: vec![arg],
                });
            }
            "SUBSTRING" => {
                self.bump();
                self.expect_sym("(")?;
                let s = self.expr()?;
                let mut args = vec![s];
                if self.eat_kw("FROM") {
                    args.push(self.expr()?);
                    if self.eat_kw("FOR") {
                        args.push(self.expr()?);
                    }
                } else {
                    while self.eat_sym(",") {
                        args.push(self.expr()?);
                    }
                }
                self.expect_sym(")")?;
                return Ok(Expr::Call {
                    name: "SUBSTRING".into(),
                    args,
                });
            }
            _ => {}
        }

        let name = w.name().unwrap_or_default();
        // Aggregates and function calls: word followed by '('.
        if self.peek_at(1).is_some_and(|t| t.is_sym("(")) {
            self.bump(); // name
            self.bump(); // '('
            let w = name;
            if matches!(w.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX") {
                if w == "COUNT" && self.eat_sym("*") {
                    self.expect_sym(")")?;
                    return Ok(Expr::Aggregate {
                        name: w,
                        arg: None,
                        distinct: false,
                    });
                }
                let distinct = self.eat_kw("DISTINCT");
                let arg = self.expr()?;
                self.expect_sym(")")?;
                return Ok(Expr::Aggregate {
                    name: w,
                    arg: Some(Box::new(arg)),
                    distinct,
                });
            }
            let mut args = Vec::new();
            if !self.eat_sym(")") {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
            }
            return Ok(Expr::Call { name: w, args });
        }

        // Column reference, possibly qualified. Reserved words cannot name
        // columns — this is what rejects `SELECT FROM`.
        if is_reserved(keyword.as_str()) {
            return Err(self.err("expected expression"));
        }
        self.bump();
        if self.eat_sym(".") {
            let column = self.expect_word()?;
            Ok(Expr::Column(ColumnRef {
                table: Some(name),
                column,
            }))
        } else {
            Ok(Expr::Column(ColumnRef {
                table: None,
                column: name,
            }))
        }
    }
}

/// Comparison symbols with a built-in meaning, kept as static operator
/// names; any other symbol names a user-defined operator.
const BUILTIN_COMPARISONS: [&str; 8] = ["=", "<>", "!=", "<", "<=", ">", ">=", "||"];

/// Words that cannot name a column — this is what rejects `SELECT FROM`.
fn is_reserved(w: &str) -> bool {
    matches!(
        w,
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "BY"
            | "LIMIT"
            | "SELECT"
            | "INSERT"
            | "UPDATE"
            | "DELETE"
            | "JOIN"
            | "ON"
            | "AS"
            | "AND"
            | "OR"
            | "NOT"
            | "THEN"
            | "ELSE"
            | "WHEN"
            | "END"
            | "IN"
            | "IS"
            | "BETWEEN"
            | "LIKE"
            | "DISTINCT"
            | "UNION"
            | "VALUES"
            | "ASC"
            | "DESC"
    )
}

/// Words that end a select item rather than alias it.
fn is_clause_keyword(w: &str) -> bool {
    matches!(
        w,
        "FROM" | "WHERE" | "GROUP" | "HAVING" | "ORDER" | "LIMIT" | "UNION" | "AS"
    )
}

/// Words that end a `FROM` table rather than alias it.
fn is_from_keyword(w: &str) -> bool {
    matches!(
        w,
        "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "LEFT"
            | "INNER"
            | "JOIN"
            | "ON"
            | "UNION"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT name FROM users WHERE id = 1");
        assert_eq!(s.items.len(), 1);
        assert_eq!(s.from[0].name, "USERS");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn select_star_and_limit() {
        let s = sel("SELECT * FROM t ORDER BY a DESC, b LIMIT 10;");
        assert!(s.items[0].expr.is_none());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn aggregates_and_group_by() {
        let s = sel("SELECT l_returnflag, SUM(l_quantity) AS sum_qty, COUNT(*) \
             FROM lineitem GROUP BY l_returnflag HAVING SUM(l_quantity) > 100");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(matches!(
            s.items[1].expr,
            Some(Expr::Aggregate { ref name, .. }) if name == "SUM"
        ));
        assert_eq!(s.items[1].alias.as_deref(), Some("SUM_QTY"));
    }

    #[test]
    fn implicit_join_with_aliases() {
        let s = sel("SELECT c.name FROM customer c, orders o WHERE c.id = o.cust_id");
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].alias, "C");
        assert_eq!(s.from[1].alias, "O");
    }

    #[test]
    fn explicit_inner_join_desugars_to_where() {
        let s = sel("SELECT 1 FROM a JOIN b ON a.x = b.y WHERE a.z > 0");
        assert_eq!(s.from.len(), 2);
        let w = s.where_clause.unwrap();
        assert!(matches!(w, Expr::Binary { ref op, .. } if op == "AND"));
    }

    #[test]
    fn left_join_keeps_condition() {
        let s = sel("SELECT 1 FROM c LEFT OUTER JOIN o ON c.k = o.k");
        assert!(s.from[1].left_join_on.is_some());
    }

    #[test]
    fn custom_operator_parses() {
        let s = sel("SELECT x FROM some_table WHERE col_to_leak >>> 0");
        match s.where_clause.unwrap() {
            Expr::Binary { op, .. } => assert_eq!(op, ">>>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subqueries_in_in_and_exists() {
        let s = sel("SELECT 1 FROM t WHERE a IN (SELECT b FROM u) AND EXISTS (SELECT 1 FROM v)");
        let w = s.where_clause.unwrap();
        assert!(matches!(w, Expr::Binary { ref op, .. } if op == "AND"));
    }

    #[test]
    fn scalar_subquery() {
        let s = sel("SELECT 1 FROM t WHERE a > (SELECT AVG(x) FROM t)");
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => {
                assert!(matches!(*right, Expr::Subquery(_)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_when_expression() {
        let s = sel("SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END FROM t");
        assert!(matches!(s.items[0].expr, Some(Expr::Case { .. })));
    }

    #[test]
    fn between_and_like_and_not() {
        let s =
            sel("SELECT 1 FROM t WHERE a BETWEEN 1 AND 5 AND name LIKE 'A%' AND b NOT IN (1,2)");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn date_literal() {
        let s = sel("SELECT 1 FROM t WHERE d <= date '1998-09-02'");
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => {
                assert_eq!(*right, Expr::Literal(Value::Text("1998-09-02".into())))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_table_with_precision() {
        let stmt =
            parse_statement("CREATE TABLE t (id INT, price NUMERIC(15,2), name VARCHAR(25))")
                .unwrap();
        match stmt {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "T");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[1].ty, SqlType::Float);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert { columns, rows, .. } => {
                assert_eq!(columns, vec!["A", "B"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cve_7484_exploit_script_parses() {
        let script = "
            CREATE FUNCTION leak2(integer,integer) RETURNS boolean
            AS $$BEGIN RAISE NOTICE 'leak % %', $1, $2;
            RETURN $1 > $2; END$$
            LANGUAGE plpgsql immutable;
            CREATE OPERATOR >>> (procedure=leak2, leftarg=integer, rightarg=integer,
                                 restrict=scalargtsel);
            SET client_min_messages TO 'notice';
            EXPLAIN (COSTS OFF) SELECT x FROM some_table WHERE col_to_leak >>> 0;
        ";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 4);
        assert!(matches!(
            stmts[0],
            Statement::CreateFunction { arg_count: 2, .. }
        ));
        assert!(
            matches!(stmts[1], Statement::CreateOperator { ref symbol, ref restrict, .. }
                if symbol == ">>>" && restrict.as_deref() == Some("SCALARGTSEL"))
        );
        assert!(matches!(stmts[3], Statement::Explain(_)));
    }

    #[test]
    fn cve_10130_exploit_script_parses() {
        let script = "
            CREATE FUNCTION op_leak(int, int) RETURNS bool
            AS 'BEGIN RAISE NOTICE ''leak %, %'', $1, $2;
            RETURN $1 < $2; END'
            LANGUAGE plpgsql;
            CREATE OPERATOR <<< (procedure=op_leak, leftarg=int, rightarg=int,
                                 restrict=scalarltsel);
            SELECT * FROM some_table WHERE col_to_leak <<< 1000;
        ";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn rls_and_grants_parse() {
        for sql in [
            "ALTER TABLE secrets ENABLE ROW LEVEL SECURITY",
            "CREATE POLICY p ON secrets USING (owner_id = 1)",
            "GRANT SELECT ON secrets TO mallory",
            "CREATE USER mallory",
        ] {
            parse_statement(sql).unwrap();
        }
    }

    #[test]
    fn set_and_show() {
        assert!(matches!(
            parse_statement("SET default_transaction_isolation TO 'serializable'").unwrap(),
            Statement::Set { .. }
        ));
        assert!(matches!(
            parse_statement("SHOW server_version").unwrap(),
            Statement::Show { .. }
        ));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse_statement("SELEK 1").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("INSERT INTO t VALUES").is_err());
    }

    #[test]
    fn select_without_from() {
        let s = sel("SELECT 1 + 2");
        assert!(s.from.is_empty());
    }

    /// Undoes the snapshot file's escapes (`\\`, `\n`, `\r`, `\t`).
    fn unescape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            }
        }
        out
    }

    /// `testdata/parse_snapshot.txt` pins the `Debug` of `parse_statement`
    /// — the AST or the error — for every SQL string the repo ships: the
    /// pgbench and TPC-H sets, the CVE listings of `rddr-vulns`, the
    /// `pg-*` fuzz corpus, and the SQL literals of the tests, benchmarks
    /// and examples (a `format!` placeholder stands as `1`), plus lexer
    /// edge cases. A lexer or parser change that moves one AST node or one
    /// error message fails here.
    #[test]
    fn parse_snapshot_is_unchanged() {
        let snapshot = include_str!("../testdata/parse_snapshot.txt");
        let mut pinned = std::collections::BTreeSet::new();
        let mut lines = snapshot.lines();
        while let Some(line) = lines.next() {
            if line.is_empty() {
                continue;
            }
            let sql = unescape(line.strip_prefix("sql: ").expect("an sql: line"));
            let ast = unescape(
                lines
                    .next()
                    .and_then(|l| l.strip_prefix("ast: "))
                    .expect("ast:"),
            );
            assert_eq!(format!("{:?}", parse_statement(&sql)), ast, "{sql}");
            pinned.insert(sql);
        }
        assert!(pinned.len() > 300, "{} statements", pinned.len());

        // The shipped sets stay covered.
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let mut shipped: Vec<String> = crate::tpch::QUERIES.iter().map(|q| q.sql.into()).collect();
        shipped.extend(crate::tpch::SCHEMA.iter().map(|s| s.to_string()));
        shipped.extend(crate::pgbench::SCHEMA.iter().map(|s| s.to_string()));
        for entry in std::fs::read_dir(corpus).expect("the fuzz corpus") {
            let path = entry.expect("a corpus entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if !name.starts_with("pg-") {
                continue;
            }
            let case = std::fs::read_to_string(&path).expect("a corpus case");
            shipped.extend(
                case.lines()
                    .filter_map(|l| l.strip_prefix("item: "))
                    .filter(|item| !item.starts_with('!'))
                    .map(str::to_string),
            );
        }
        for sql in &shipped {
            assert!(pinned.contains(sql), "not in the parse snapshot: {sql}");
        }
    }
}
