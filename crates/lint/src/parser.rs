//! Structural parser: token stream → [`FileItems`].
//!
//! A single linear pass over the positioned token stream recovers the
//! item structure the call graph needs: `impl`/`trait` blocks (method
//! ownership), `fn` definitions with parameter and `let` bindings
//! (receiver-type hints), struct fields (field-chain receiver hints),
//! and every call expression — free, method, or macro — inside fn
//! bodies. It is *recognition*, not full parsing: constructs it does
//! not model (closure parameter types, items nested inside fn bodies
//! other than fns, qualified `<T as Trait>::…` paths) degrade to
//! "unknown", which the call graph reports rather than drops.
//!
//! Brace depth is tracked globally; each recognized scope (`impl`,
//! `trait`, `fn`) records the depth at which it opened and is popped
//! when the matching brace closes, so nested fns and `mod tests { … }`
//! blocks attribute calls to the right function.

use crate::items::{
    Binding, CallKind, CallSite, FileItems, FnDef, Receiver, RecvLink, StructDef, TraitDef,
};
use crate::lexer::{Lexed, Token, TokenKind};

/// Idents that can never head a call expression.
const KEYWORDS: [&str; 33] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "mut",
    "ref", "move", "in", "as", "where", "pub", "crate", "super", "use", "mod", "fn", "impl",
    "trait", "struct", "enum", "union", "type", "const", "static", "unsafe", "dyn", "await",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s) || s == "self" || s == "true" || s == "false"
}

enum Scope {
    Impl { ty: String, tr: Option<String> },
    Trait { name: String },
    Fn { idx: usize },
}

struct Parser<'a> {
    t: &'a [Token],
    out: FileItems,
    scopes: Vec<(Scope, u32)>,
    depth: u32,
}

/// Parse one file's token stream into its item model.
pub fn parse_file(lexed: &Lexed) -> FileItems {
    let mut p = Parser {
        t: &lexed.tokens,
        out: FileItems::default(),
        scopes: Vec::new(),
        depth: 0,
    };
    p.run();
    p.out
}

impl<'a> Parser<'a> {
    fn run(&mut self) {
        let mut i = 0;
        while i < self.t.len() {
            i = self.step(i);
        }
        // Unterminated scopes (truncated input): close at the last line.
        let last_line = self.t.last().map_or(0, |t| t.line);
        while let Some((scope, _)) = self.scopes.pop() {
            if let Scope::Fn { idx } = scope {
                self.out.fns[idx].end_line = last_line;
            }
        }
    }

    /// Process the token at `i`; return the next index to process.
    fn step(&mut self, i: usize) -> usize {
        let tok = &self.t[i];
        match tok.kind {
            TokenKind::Punct => match tok.text.as_str() {
                "{" => {
                    self.depth += 1;
                    i + 1
                }
                "}" => {
                    self.depth = self.depth.saturating_sub(1);
                    while self
                        .scopes
                        .last()
                        .is_some_and(|(_, open)| *open > self.depth)
                    {
                        let (scope, _) = self.scopes.pop().expect("scope stack is non-empty");
                        if let Scope::Fn { idx } = scope {
                            self.out.fns[idx].end_line = tok.line;
                        }
                    }
                    i + 1
                }
                "#" => self.skip_attribute(i),
                "." => self.method_call(i),
                _ => i + 1,
            },
            TokenKind::Ident => self.ident(i),
            _ => i + 1,
        }
    }

    fn ident(&mut self, i: usize) -> usize {
        let name = self.t[i].text.as_str();
        let in_fn = self.innermost_fn().is_some();
        match name {
            "impl" if !in_fn => self.impl_header(i),
            "trait" if !in_fn && self.is_ident_at(i + 1) => self.trait_header(i),
            "struct" if !in_fn && self.is_ident_at(i + 1) => self.struct_def(i),
            "fn" if self.is_ident_at(i + 1) => self.fn_def(i),
            "let" if in_fn => self.let_binding(i),
            _ if in_fn && !is_keyword(name) && !self.prev_is(i, "::") && !self.prev_is(i, ".") => {
                self.free_or_macro_call(i)
            }
            _ => i + 1,
        }
    }

    // ----- helpers ------------------------------------------------------

    fn is_ident_at(&self, i: usize) -> bool {
        self.t.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn punct_at(&self, i: usize, s: &str) -> bool {
        self.t.get(i).is_some_and(|t| t.is_punct(s))
    }

    fn prev_is(&self, i: usize, s: &str) -> bool {
        i > 0 && self.t[i - 1].is_punct(s)
    }

    fn innermost_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|(s, _)| match s {
            Scope::Fn { idx } => Some(*idx),
            _ => None,
        })
    }

    /// Enclosing impl/trait context: `(owner type, trait impl, in trait)`.
    fn owner(&self) -> (Option<String>, Option<String>, bool) {
        for (s, _) in self.scopes.iter().rev() {
            match s {
                Scope::Impl { ty, tr } => return (Some(ty.clone()), tr.clone(), false),
                Scope::Trait { name } => return (Some(name.clone()), None, true),
                Scope::Fn { .. } => {}
            }
        }
        (None, None, false)
    }

    /// `t[i]` is `<`: index just past the matching `>` (or EOF).
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < self.t.len() {
            match self.t[j].text.as_str() {
                "<" if self.t[j].kind == TokenKind::Punct => depth += 1,
                ">" if self.t[j].kind == TokenKind::Punct => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.t.len()
    }

    /// `t[i]` is `open`: index just past the matching `close` (or EOF).
    fn skip_group(&self, i: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < self.t.len() {
            if self.t[j].is_punct(open) {
                depth += 1;
            } else if self.t[j].is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.t.len()
    }

    /// `#[…]` / `#![…]` attribute: skip it whole so `derive(Debug)` and
    /// friends never register as calls.
    fn skip_attribute(&self, i: usize) -> usize {
        let mut j = i + 1;
        if self.punct_at(j, "!") {
            j += 1;
        }
        if self.punct_at(j, "[") {
            self.skip_group(j, "[", "]")
        } else {
            i + 1
        }
    }

    /// Collect a `::`-separated ident path starting at `i` (turbofish
    /// segments skipped). Returns `(segments, index past the path)`.
    fn collect_path(&self, i: usize) -> (Vec<usize>, usize) {
        let mut segs = vec![i];
        let mut j = i + 1;
        loop {
            if self.punct_at(j, "::") && self.punct_at(j + 1, "<") {
                j = self.skip_angles(j + 1);
                continue;
            }
            if self.punct_at(j, "::") && self.is_ident_at(j + 1) {
                segs.push(j + 1);
                j += 2;
                continue;
            }
            break;
        }
        (segs, j)
    }

    // ----- item headers -------------------------------------------------

    /// `impl<…> Type {` / `impl<…> Trait for Type {`.
    fn impl_header(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        if self.punct_at(j, "<") {
            j = self.skip_angles(j);
        }
        let mut first: Vec<String> = Vec::new();
        let mut second: Vec<String> = Vec::new();
        let mut cur = &mut first;
        let mut saw_for = false;
        while j < self.t.len() && !self.t[j].is_punct("{") && !self.t[j].is_ident("where") {
            let t = &self.t[j];
            if t.is_ident("for") {
                saw_for = true;
                cur = &mut second;
                j += 1;
                continue;
            }
            if t.is_punct("<") {
                j = self.skip_angles(j);
                continue;
            }
            if t.kind == TokenKind::Ident && !matches!(t.text.as_str(), "dyn" | "mut") {
                cur.push(t.text.clone());
            }
            j += 1;
        }
        while j < self.t.len() && !self.t[j].is_punct("{") {
            j += 1;
        }
        let ty_path = if saw_for { &second } else { &first };
        let ty = ty_path.last().cloned().unwrap_or_default();
        let tr = if saw_for { first.last().cloned() } else { None };
        if let (Some(tr), true) = (&tr, !ty.is_empty()) {
            self.out.trait_impls.push((tr.clone(), ty.clone()));
        }
        if j < self.t.len() {
            self.depth += 1;
            self.scopes.push((Scope::Impl { ty, tr }, self.depth));
        }
        j + 1
    }

    /// `trait Name: Bounds {`.
    fn trait_header(&mut self, i: usize) -> usize {
        let name = self.t[i + 1].text.clone();
        self.out.traits.push(TraitDef {
            name: name.clone(),
            line: self.t[i].line,
        });
        let mut j = i + 2;
        while j < self.t.len() && !self.t[j].is_punct("{") && !self.t[j].is_punct(";") {
            if self.t[j].is_punct("<") {
                j = self.skip_angles(j);
            } else {
                j += 1;
            }
        }
        if j < self.t.len() && self.t[j].is_punct("{") {
            self.depth += 1;
            self.scopes.push((Scope::Trait { name }, self.depth));
        }
        j + 1
    }

    /// `struct Name … { fields }` / tuple / unit struct.
    fn struct_def(&mut self, i: usize) -> usize {
        let name = self.t[i + 1].text.clone();
        let line = self.t[i].line;
        let mut j = i + 2;
        while j < self.t.len()
            && !self.t[j].is_punct("{")
            && !self.t[j].is_punct("(")
            && !self.t[j].is_punct(";")
        {
            if self.t[j].is_punct("<") {
                j = self.skip_angles(j);
            } else {
                j += 1;
            }
        }
        if j >= self.t.len() {
            return j;
        }
        if self.t[j].is_punct("(") {
            // Tuple struct: no named fields to record.
            self.out.structs.push(StructDef {
                name,
                fields: vec![],
                line,
            });
            return self.skip_group(j, "(", ")");
        }
        if self.t[j].is_punct(";") {
            self.out.structs.push(StructDef {
                name,
                fields: vec![],
                line,
            });
            return j + 1;
        }
        // Named fields: parse `ident: Type` pairs up to the matching `}`.
        let end = self.skip_group(j, "{", "}");
        let mut fields = Vec::new();
        let mut k = j + 1;
        while k + 1 < end {
            if self.punct_at(k, "#") {
                k = self.skip_attribute(k);
                continue;
            }
            if self.t[k].is_ident("pub") {
                k += 1;
                if self.punct_at(k, "(") {
                    k = self.skip_group(k, "(", ")");
                }
                continue;
            }
            if self.is_ident_at(k) && self.punct_at(k + 1, ":") {
                let fname = self.t[k].text.clone();
                let (ty, next) = self.collect_type(k + 2, end - 1);
                fields.push((fname, ty));
                k = next + 1; // past the `,` (or at `}`)
                continue;
            }
            k += 1;
        }
        self.out.structs.push(StructDef { name, fields, line });
        end
    }

    /// Collect type tokens from `from` until a top-level `,`, `=` or `;`
    /// (or `stop`). Returns `(tokens, index of the terminator)`.
    fn collect_type(&self, from: usize, stop: usize) -> (Vec<String>, usize) {
        let mut ty = Vec::new();
        let (mut angle, mut paren, mut bracket) = (0i32, 0i32, 0i32);
        let mut j = from;
        while j < stop.min(self.t.len()) {
            let t = &self.t[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" => paren += 1,
                    ")" => {
                        if paren == 0 {
                            break;
                        }
                        paren -= 1;
                    }
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "," | "=" | ";" if angle <= 0 && paren == 0 && bracket == 0 => break,
                    _ => {}
                }
            }
            ty.push(t.text.clone());
            j += 1;
        }
        (ty, j)
    }

    /// `fn name<…>(params) -> Ret { body }` (or `;` for signatures).
    fn fn_def(&mut self, i: usize) -> usize {
        let name = self.t[i + 1].text.clone();
        let line = self.t[i].line;
        let (owner, trait_impl, in_trait) = self.owner();
        let mut j = i + 2;
        if self.punct_at(j, "<") {
            j = self.skip_angles(j);
        }
        if !self.punct_at(j, "(") {
            return i + 1; // not a fn item shape we recognize
        }
        let params_end = self.skip_group(j, "(", ")");
        let params = self.parse_params(j + 1, params_end - 1, owner.as_deref());
        // Skip return type + where clause to the body (or `;`).
        let mut k = params_end;
        while k < self.t.len() && !self.t[k].is_punct("{") && !self.t[k].is_punct(";") {
            if self.t[k].is_punct("<") {
                k = self.skip_angles(k);
            } else {
                k += 1;
            }
        }
        let has_body = k < self.t.len() && self.t[k].is_punct("{");
        let end_line = self.t.get(k).map_or(line, |t| t.line);
        self.out.fns.push(FnDef {
            name,
            owner,
            trait_impl,
            in_trait,
            line,
            end_line,
            params,
            locals: Vec::new(),
            calls: Vec::new(),
            has_body,
        });
        if has_body {
            self.depth += 1;
            let idx = self.out.fns.len() - 1;
            self.scopes.push((Scope::Fn { idx }, self.depth));
        }
        k + 1
    }

    /// Parameter list between `from..to` (paren-exclusive).
    fn parse_params(&self, from: usize, to: usize, owner: Option<&str>) -> Vec<Binding> {
        let mut params = Vec::new();
        let mut k = from;
        while k < to {
            if self.punct_at(k, "#") {
                k = self.skip_attribute(k);
                continue;
            }
            // One parameter: tokens up to the next top-level `,`.
            let start = k;
            let (mut angle, mut paren, mut bracket) = (0i32, 0i32, 0i32);
            while k < to {
                let t = &self.t[k];
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "[" => bracket += 1,
                        "]" => bracket -= 1,
                        "," if angle <= 0 && paren == 0 && bracket == 0 => break,
                        _ => {}
                    }
                }
                k += 1;
            }
            self.param_binding(start, k, owner, &mut params);
            k += 1; // past the `,`
        }
        params
    }

    /// One parameter slice → binding (when it has the `name: Type` or
    /// `self` shape; patterns are skipped).
    fn param_binding(&self, from: usize, to: usize, owner: Option<&str>, out: &mut Vec<Binding>) {
        let mut k = from;
        // `self` forms: `self`, `&self`, `&mut self`, `mut self`, `&'a self`.
        while k < to
            && (self.punct_at(k, "&")
                || self.t[k].is_ident("mut")
                || self.t[k].kind == TokenKind::Lifetime)
        {
            k += 1;
        }
        if k < to && self.t[k].is_ident("self") {
            if let Some(o) = owner {
                out.push(Binding {
                    name: "self".into(),
                    ty: vec![o.to_string()],
                    at: from,
                });
            }
            return;
        }
        // `name: Type` / `mut name: Type`.
        let mut k = from;
        if k < to && self.t[k].is_ident("mut") {
            k += 1;
        }
        if k + 1 < to && self.is_ident_at(k) && self.punct_at(k + 1, ":") {
            let name = self.t[k].text.clone();
            if is_keyword(&name) {
                return;
            }
            let ty: Vec<String> = self.t[k + 2..to].iter().map(|t| t.text.clone()).collect();
            out.push(Binding { name, ty, at: from });
        }
    }

    /// `let [mut] name [: Type] = …` — records the binding (typed from
    /// the ascription or inferred from a constructor/struct-literal RHS)
    /// and leaves the RHS for normal call scanning. Pattern `let`s
    /// (`let Some(x) = …`) record nothing.
    fn let_binding(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        if self.t.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        if !self.is_ident_at(j) || is_keyword(&self.t[j].text) {
            return i + 1;
        }
        let name = self.t[j].text.clone();
        let name_at = j;
        let mut ty;
        let mut resume = j + 1;
        if self.punct_at(j + 1, ":") {
            let (t, term) = self.collect_type(j + 2, self.t.len());
            ty = t;
            resume = term; // types contain no calls — skip them
        } else if self.punct_at(j + 1, "=") {
            ty = self.infer_rhs_type(j + 2);
        } else {
            // `let name;` or something we don't model.
            return j + 1;
        }
        if self.punct_at(resume, "=") && ty.is_empty() {
            // Ascription was empty/unknown but an initializer follows.
            ty = self.infer_rhs_type(resume + 1);
        }
        if let Some(idx) = self.innermost_fn() {
            self.out.fns[idx].locals.push(Binding {
                name,
                ty,
                at: name_at,
            });
        }
        resume.max(j + 1)
    }

    /// Type hint from an initializer expression: `Type::ctor(…)` /
    /// `Type { … }` / `Self { … }` → the type name; anything else →
    /// unknown.
    fn infer_rhs_type(&self, i: usize) -> Vec<String> {
        if !self.is_ident_at(i) || is_keyword(&self.t[i].text) {
            return Vec::new();
        }
        if self.t[i].is_ident("Self") {
            let (owner, _, _) = self.owner();
            return owner.map(|o| vec![o]).unwrap_or_default();
        }
        let (segs, j) = self.collect_path(i);
        let upper = |k: &usize| {
            self.t[*k]
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_uppercase())
        };
        if self.punct_at(j, "{") && segs.last().is_some_and(upper) {
            // Struct literal — but only if the last segment names a type.
            return vec![self.t[*segs.last().expect("path is non-empty")]
                .text
                .clone()];
        }
        if segs.len() > 1 {
            // `HashMap::new()`, `ShardSlots::new(…)` → last capitalized
            // segment. Bare calls (`relock(…)`) give no hint.
            if let Some(k) = segs.iter().rev().find(|k| upper(k)) {
                return vec![self.t[*k].text.clone()];
            }
        }
        Vec::new()
    }

    // ----- calls --------------------------------------------------------

    /// `.name(…)` / `.name::<…>(…)` method call (at the `.` token).
    fn method_call(&mut self, i: usize) -> usize {
        let Some(idx) = self.innermost_fn() else {
            return i + 1;
        };
        // Not a method position: `..` range on either side.
        if self.prev_is(i, ".") || self.punct_at(i + 1, ".") {
            return i + 1;
        }
        if !self.is_ident_at(i + 1) || self.t[i + 1].is_ident("await") {
            return i + 1;
        }
        let mut j = i + 2;
        if self.punct_at(j, "::") && self.punct_at(j + 1, "<") {
            j = self.skip_angles(j + 1);
        }
        if !self.punct_at(j, "(") {
            return i + 1; // field access
        }
        let args_end = self.skip_group(j, "(", ")");
        let receiver = self.receiver_chain(i.wrapping_sub(1));
        self.out.fns[idx].calls.push(CallSite {
            kind: CallKind::Method,
            name: self.t[i + 1].text.clone(),
            qualifier: None,
            receiver,
            arg_ident: None,
            line: self.t[i + 1].line,
            at: i + 1,
            args: (j + 1, args_end - 1),
        });
        i + 2 // rescan from `(`: nested calls in the args are real calls
    }

    /// Walk the receiver chain backwards from token `k` (the token just
    /// before the method's `.`).
    fn receiver_chain(&self, mut k: usize) -> Receiver {
        let mut chain: Vec<RecvLink> = Vec::new();
        let mut indexed = false;
        loop {
            if k >= self.t.len() {
                return Receiver::default();
            }
            let t = &self.t[k];
            if t.is_punct("]") {
                // Balanced walk back to the matching `[`.
                let mut depth = 0i32;
                loop {
                    if self.t[k].is_punct("]") {
                        depth += 1;
                    } else if self.t[k].is_punct("[") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        return Receiver::default();
                    }
                    k -= 1;
                }
                if k == 0 {
                    return Receiver::default();
                }
                indexed = true;
                k -= 1;
                continue;
            }
            if t.kind == TokenKind::Ident && (t.text == "self" || !is_keyword(&t.text)) {
                if k > 0 && self.t[k - 1].is_punct("::") {
                    return Receiver::default(); // path receiver: not modeled
                }
                chain.insert(
                    0,
                    RecvLink {
                        name: t.text.clone(),
                        indexed,
                    },
                );
                indexed = false;
                if k >= 2 && self.t[k - 1].is_punct(".") && !self.t[k - 2].is_punct(".") {
                    k -= 2;
                    continue;
                }
                return Receiver { chain };
            }
            return Receiver::default(); // `)…`, literal, `?`, …
        }
    }

    /// Free call `path(…)`, macro `name!(…)`, or a plain path (skipped
    /// whole so its segments are not re-scanned as call heads).
    fn free_or_macro_call(&mut self, i: usize) -> usize {
        let idx = self.innermost_fn().expect("checked by caller");
        let (segs, j) = self.collect_path(i);
        let last = *segs.last().expect("path is non-empty");
        if self.punct_at(j, "!") {
            let open = self.t.get(j + 1).map(|t| t.text.as_str());
            if matches!(open, Some("(") | Some("[") | Some("{")) {
                self.out.fns[idx].calls.push(CallSite {
                    kind: CallKind::Macro,
                    name: self.t[last].text.clone(),
                    qualifier: None,
                    receiver: Receiver::default(),
                    arg_ident: None,
                    line: self.t[last].line,
                    at: last,
                    args: (j + 2, j + 2),
                });
                // Rescan inside the macro args: they are expressions in
                // every macro this workspace uses. A `{`-delimited body
                // is walked as a balanced token tree — its opening brace
                // is counted like any block's — so the closing `}` cannot
                // end the enclosing fn early.
                return if open == Some("{") { j + 1 } else { j + 2 };
            }
            return j + 1;
        }
        if self.punct_at(j, "(") {
            let args_end = self.skip_group(j, "(", ")");
            let arg_ident = if args_end == j + 3 && self.is_ident_at(j + 1) {
                Some(self.t[j + 1].text.clone())
            } else {
                None
            };
            let qualifier = if segs.len() >= 2 {
                Some(self.t[segs[segs.len() - 2]].text.clone())
            } else {
                None
            };
            self.out.fns[idx].calls.push(CallSite {
                kind: CallKind::Free,
                name: self.t[last].text.clone(),
                qualifier,
                receiver: Receiver::default(),
                arg_ident,
                line: self.t[last].line,
                at: last,
                args: (j + 1, args_end - 1),
            });
            return j + 1; // rescan args
        }
        j.max(i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileItems {
        parse_file(&lex(src))
    }

    #[test]
    fn recovers_fns_with_owners() {
        let items = parse(
            "fn free() {}\n\
             struct Foo { x: u32 }\n\
             impl Foo { fn method(&self) {} }\n\
             trait Bar { fn sig(&self); fn dflt(&self) { self.sig() } }\n\
             impl Bar for Foo { fn sig(&self) {} }\n",
        );
        let names: Vec<String> = items.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            names,
            ["free", "Foo::method", "Bar::sig", "Bar::dflt", "Foo::sig"]
        );
        assert!(items.fns[2].in_trait && !items.fns[2].has_body);
        assert!(items.fns[3].in_trait && items.fns[3].has_body);
        assert_eq!(items.fns[4].trait_impl.as_deref(), Some("Bar"));
        assert_eq!(
            items.trait_impls,
            vec![("Bar".to_string(), "Foo".to_string())]
        );
    }

    #[test]
    fn records_method_calls_with_receiver_chains() {
        let items = parse(
            "fn f(q: &ParallelQueue) {\n\
                 q.slots.shards[s].lock();\n\
                 self.head_time[w].load(x);\n\
             }\n",
        );
        let calls = &items.fns[0].calls;
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].name, "lock");
        let c0: Vec<(&str, bool)> = calls[0]
            .receiver
            .chain
            .iter()
            .map(|l| (l.name.as_str(), l.indexed))
            .collect();
        assert_eq!(c0, [("q", false), ("slots", false), ("shards", true)]);
        let c1: Vec<(&str, bool)> = calls[1]
            .receiver
            .chain
            .iter()
            .map(|l| (l.name.as_str(), l.indexed))
            .collect();
        assert_eq!(c1, [("self", false), ("head_time", true)]);
    }

    #[test]
    fn records_free_path_and_macro_calls() {
        let items = parse(
            "fn f() {\n\
                 relock(guard);\n\
                 ShardSlots::new(4, 2);\n\
                 std::mem::take(&mut v);\n\
                 panic!(\"boom {}\", compute());\n\
             }\n",
        );
        let calls = &items.fns[0].calls;
        let heads: Vec<(&str, Option<&str>, CallKind)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.qualifier.as_deref(), c.kind))
            .collect();
        assert_eq!(
            heads,
            [
                ("relock", None, CallKind::Free),
                ("new", Some("ShardSlots"), CallKind::Free),
                ("take", Some("mem"), CallKind::Free),
                ("panic", None, CallKind::Macro),
                ("compute", None, CallKind::Free), // inside the macro args
            ]
        );
        assert_eq!(calls[0].arg_ident.as_deref(), Some("guard"));
    }

    #[test]
    fn let_bindings_carry_type_hints() {
        let items = parse(
            "fn f() {\n\
                 let a: Vec<Mutex<DrainOut>> = Vec::new();\n\
                 let b = ShardSlots::new(4, 2);\n\
                 let mut c = DoneGuard { pool: p };\n\
                 let d = helper();\n\
                 let Some(e) = opt else { return };\n\
             }\n",
        );
        let f = &items.fns[0];
        let get = |n: &str| {
            f.locals
                .iter()
                .find(|b| b.name == n)
                .map(|b| b.ty.join(" "))
        };
        assert_eq!(get("a").as_deref(), Some("Vec < Mutex < DrainOut > >"));
        assert_eq!(get("b").as_deref(), Some("ShardSlots"));
        assert_eq!(get("c").as_deref(), Some("DoneGuard"));
        assert_eq!(get("d").as_deref(), Some(""));
        assert!(get("e").is_none(), "pattern lets record no binding");
    }

    #[test]
    fn nested_fns_and_closures_attribute_calls_correctly() {
        let items = parse(
            "fn outer() {\n\
                 fn inner() { alpha(); }\n\
                 let job = move |w: usize| { beta(w); };\n\
                 gamma();\n\
             }\n",
        );
        let outer = items.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = items.fns.iter().find(|f| f.name == "inner").expect("inner");
        let inner_names: Vec<&str> = inner.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(inner_names, ["alpha"]);
        // Closure bodies belong to the enclosing fn.
        let outer_names: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_names, ["beta", "gamma"]);
    }

    #[test]
    fn generic_fns_and_turbofish_parse() {
        let items = parse(
            "fn g<T: Clone + Send>(x: T) -> Vec<T> where T: Sized {\n\
                 let v = x.clone::<T>();\n\
                 collect::<Vec<_>>(v)\n\
             }\n",
        );
        let f = &items.fns[0];
        assert_eq!(f.name, "g");
        assert_eq!(f.params.len(), 1);
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["clone", "collect"]);
    }

    #[test]
    fn struct_fields_are_typed() {
        let items = parse(
            "pub struct ShardSlots {\n\
                 pub shards: Vec<Mutex<BinaryHeap<Reverse<EventKey>>>>,\n\
                 head_time: Vec<AtomicU64>,\n\
                 n: usize,\n\
             }\n\
             struct Unit;\n\
             struct Tup(u32, u32);\n",
        );
        assert_eq!(items.structs.len(), 3);
        let s = &items.structs[0];
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0].0, "shards");
        assert_eq!(crate::items::type_head(&s.fields[1].1), Some("Vec"));
        assert_eq!(s.fields[2].1, vec!["usize".to_string()]);
    }

    #[test]
    fn ranges_are_not_method_calls() {
        let items = parse("fn f(n: usize) { for i in 0..n { work(i); } }\n");
        let names: Vec<&str> = items.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["work"]);
    }

    #[test]
    fn attributes_never_register_calls() {
        let items = parse(
            "#[derive(Debug, Clone)]\nstruct S { x: u32 }\n\
             fn f() {\n    #[allow(dead_code)]\n    let y = 1;\n    real();\n}\n",
        );
        let names: Vec<&str> = items.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn fn_end_lines_cover_bodies() {
        let items = parse("fn a() {\n  x();\n  y();\n}\nfn b() {}\n");
        assert_eq!(items.fns[0].line, 1);
        assert_eq!(items.fns[0].end_line, 4);
        assert_eq!(items.fns[1].line, 5);
    }
}
