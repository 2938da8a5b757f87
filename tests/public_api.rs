//! The workspace's public surface, pinned.
//!
//! Walks `crates/*/src/**/*.rs` (not `src/bin/`) and the facade's
//! `src/lib.rs`, skipping every `#[cfg(test)]` item, and lists one line
//! per public item as `module path: kind name`, signatures elided:
//!
//! - `pub` fn, struct, enum, trait, const, static, type and mod;
//! - the `pub` fns and consts of inherent impls of a public type
//!   (`fn Type::name`);
//! - the methods of a `pub trait` (`method Trait::name`);
//! - the `pub` fields of a `pub` struct (`field Type.name`, `Type.0` for a
//!   tuple struct) and the variants of a `pub` enum (`variant Enum::Name`);
//! - `pub use` re-exports, one line each, a multi-line list joined.
//!
//! `pub(crate)`, `pub(super)` and `pub(in …)` items are not surface. The
//! sorted list must equal `fixtures/pins/api.txt`; a change that adds to
//! the surface or takes from it rewrites that file in the same commit:
//!
//! ```text
//! PIN_REGEN=1 cargo test --test public_api
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const PINS_PATH: &str = "fixtures/pins/api.txt";

// ------------------------------------------------------------------ lexer

/// Rust source as tokens: comments dropped, every string or char literal
/// one `""` / `''` token (so a brace inside one never counts), `::`, `->`
/// and `=>` one token each, everything else one identifier, number,
/// lifetime or punctuation character.
fn tokens(src: &str) -> Vec<String> {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let ident_char = |ch: char| ch == '_' || ch.is_alphanumeric();
    let mut out = Vec::new();
    let mut i = 0;
    while i < c.len() {
        let ch = c[i];
        if ch.is_whitespace() {
            i += 1;
        } else if ch == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if ch == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if ch == '"' {
            i = skip_quoted(&c, i + 1, '"');
            out.push("\"\"".to_string());
        } else if ch == '\'' {
            if at(i + 1) == '\\' || (at(i + 1) != '\'' && at(i + 2) == '\'') {
                i = skip_quoted(&c, i + 1, '\'');
                out.push("''".to_string());
            } else {
                let start = i;
                i += 1;
                while ident_char(at(i)) {
                    i += 1;
                }
                out.push(c[start..i].iter().collect());
            }
        } else if ident_char(ch) {
            let start = i;
            while ident_char(at(i)) || (at(i) == '.' && at(i + 1).is_ascii_digit()) {
                i += 1;
            }
            let word: String = c[start..i].iter().collect();
            let raw = matches!(word.as_str(), "r" | "br" | "cr");
            if raw && (at(i) == '"' || (at(i) == '#' && matches!(at(i + 1), '"' | '#'))) {
                let mut hashes = 0;
                while at(i) == '#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1;
                while i < c.len() && !(c[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#')) {
                    i += 1;
                }
                i += 1 + hashes;
                out.push("\"\"".to_string());
            } else if matches!(word.as_str(), "b" | "c") && matches!(at(i), '"' | '\'') {
                let quote = at(i);
                i = skip_quoted(&c, i + 1, quote);
                out.push("\"\"".to_string());
            } else {
                out.push(word);
            }
        } else {
            let pair: String = [ch, at(i + 1)].iter().collect();
            if matches!(pair.as_str(), "::" | "->" | "=>") {
                out.push(pair);
                i += 2;
            } else {
                out.push(ch.to_string());
                i += 1;
            }
        }
    }
    out
}

/// The index just past the closing `quote` of a literal whose body starts
/// at `i`, stepping over backslash escapes.
fn skip_quoted(c: &[char], mut i: usize, quote: char) -> usize {
    while i < c.len() && c[i] != quote {
        i += if c[i] == '\\' { 2 } else { 1 };
    }
    i + 1
}

// ----------------------------------------------------------------- parser

/// One module's worth of tokens being read for public items.
struct Scanner<'a> {
    t: &'a [String],
    i: usize,
    /// `(module path, kind, name)` of every public item found.
    items: Vec<(String, &'static str, String)>,
    /// `(module path, type, fn or const)` of `pub` inherent-impl members;
    /// kept only where the type turns out to be public.
    impl_members: Vec<(String, String, &'static str, String)>,
}

impl Scanner<'_> {
    fn tok(&self, k: usize) -> &str {
        self.t.get(self.i + k).map_or("", String::as_str)
    }

    fn done(&self) -> bool {
        self.i >= self.t.len()
    }

    /// Steps past the bracket group opening at the cursor.
    fn skip_group(&mut self) {
        let mut depth = 0i32;
        while !self.done() {
            match self.tok(0) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            self.i += 1;
            if depth == 0 {
                return;
            }
        }
    }

    /// Steps past a `<…>` generics list opening at the cursor, if any.
    fn skip_generics(&mut self) {
        if self.tok(0) != "<" {
            return;
        }
        let mut depth = 0i32;
        while !self.done() {
            match self.tok(0) {
                "<" => depth += 1,
                ">" => depth -= 1,
                "(" | "[" | "{" => {
                    self.skip_group();
                    continue;
                }
                _ => {}
            }
            self.i += 1;
            if depth == 0 {
                return;
            }
        }
    }

    /// Steps past the next `;` outside any bracket group.
    fn skip_past_semi(&mut self) {
        while !self.done() && self.tok(0) != ";" {
            if matches!(self.tok(0), "(" | "[" | "{") {
                self.skip_group();
            } else {
                self.i += 1;
            }
        }
        self.i += 1;
    }

    /// Moves to the `{` or `;` that ends a signature, stepping over
    /// parenthesised and bracketed groups; returns the tokens passed.
    fn skip_signature(&mut self) -> Vec<String> {
        let mut passed = Vec::new();
        while !self.done() && !matches!(self.tok(0), "{" | ";") {
            passed.push(self.tok(0).to_string());
            if matches!(self.tok(0), "(" | "[") {
                self.skip_group();
            } else {
                self.i += 1;
            }
        }
        passed
    }

    /// Steps over attributes; `true` if one was `#[cfg(test)]`.
    fn skip_attrs(&mut self) -> bool {
        const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
        let mut test_only = false;
        while self.tok(0) == "#" {
            test_only |= (0..CFG_TEST.len()).all(|k| self.tok(k) == CFG_TEST[k]);
            self.i += if self.tok(1) == "!" { 2 } else { 1 };
            self.skip_group();
        }
        test_only
    }

    /// Steps past the item at the cursor: through its `;`, or through the
    /// first brace group that closes outside any bracket.
    fn skip_item(&mut self) {
        while !self.done() {
            match self.tok(0) {
                ";" => {
                    self.i += 1;
                    return;
                }
                "{" => {
                    self.skip_group();
                    return;
                }
                "(" | "[" => self.skip_group(),
                _ => self.i += 1,
            }
        }
    }

    /// Steps over a visibility; `true` only for a bare `pub`.
    fn visibility(&mut self) -> bool {
        if self.tok(0) != "pub" {
            return false;
        }
        self.i += 1;
        if self.tok(0) == "(" {
            self.skip_group();
            return false;
        }
        true
    }

    /// Steps over `const` / `async` / `unsafe` in front of `fn`, `impl` or
    /// `trait`.
    fn skip_qualifiers(&mut self) {
        while matches!(
            (self.tok(0), self.tok(1)),
            ("const", "fn" | "unsafe") | ("async" | "unsafe", _)
        ) {
            self.i += 1;
        }
    }

    /// Reads items until the `}` closing the current block or the end of
    /// the file, and steps past that `}`.
    fn items(&mut self, module: &str) {
        while !self.done() && self.tok(0) != "}" {
            if self.skip_attrs() {
                self.skip_item();
                continue;
            }
            let public = self.visibility();
            self.skip_qualifiers();
            let kind = match self.tok(0) {
                "fn" => "fn",
                "struct" => "struct",
                "enum" => "enum",
                "trait" => "trait",
                "mod" => "mod",
                "const" => "const",
                "static" => "static",
                "type" => "type",
                "use" => "use",
                "impl" => {
                    self.i += 1;
                    self.impl_block(module);
                    continue;
                }
                // Macro definitions and calls, `extern` blocks and crates.
                _ => {
                    self.skip_item();
                    continue;
                }
            };
            if kind == "use" {
                self.i += 1;
                let start = self.i;
                self.skip_past_semi();
                if public {
                    let tree = join(&self.t[start..self.i - 1]);
                    self.items.push((module.to_string(), kind, tree));
                }
                continue;
            }
            let name = self.tok(1).to_string();
            self.i += 2;
            if public {
                self.items.push((module.to_string(), kind, name.clone()));
            }
            match kind {
                "struct" => self.fields(module, &name, public),
                "enum" => {
                    self.skip_signature();
                    self.variants(module, &name, public);
                }
                "trait" => {
                    self.skip_signature();
                    self.trait_methods(module, &name, public);
                }
                "mod" if self.tok(0) == "{" => {
                    self.i += 1;
                    self.items(&format!("{module}::{name}"));
                }
                "const" | "static" | "type" => self.skip_past_semi(),
                _ => self.skip_item(),
            }
        }
        self.i += 1;
    }

    /// Records the `pub` fields of the struct whose generics start at the
    /// cursor, and steps past its definition.
    fn fields(&mut self, module: &str, owner: &str, public: bool) {
        self.skip_generics();
        if self.tok(0) != "(" {
            self.skip_signature();
        }
        let tuple = self.tok(0) == "(";
        if !matches!(self.tok(0), "(" | "{") {
            self.i += 1;
            return;
        }
        let close = if tuple { ")" } else { "}" };
        self.i += 1;
        let mut index = 0;
        while !self.done() && self.tok(0) != close {
            self.skip_attrs();
            let field_public = self.visibility();
            let name = if tuple {
                index.to_string()
            } else {
                self.tok(0).to_string()
            };
            if public && field_public {
                self.items
                    .push((module.to_string(), "field", format!("{owner}.{name}")));
            }
            // The field's type runs to a `,` outside `<…>` and brackets.
            let mut angle = 0i32;
            while !(self.done() || angle == 0 && matches!(self.tok(0), "," | ")" | "}")) {
                match self.tok(0) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" | "[" | "{" => {
                        self.skip_group();
                        continue;
                    }
                    _ => {}
                }
                self.i += 1;
            }
            if self.tok(0) == "," {
                self.i += 1;
            }
            index += 1;
        }
        self.i += 1;
        if tuple {
            self.skip_past_semi();
        }
    }

    /// Records the variants of the enum whose body opens at the cursor.
    fn variants(&mut self, module: &str, owner: &str, public: bool) {
        self.i += 1;
        while !self.done() && self.tok(0) != "}" {
            self.skip_attrs();
            if public {
                let name = format!("{owner}::{}", self.tok(0));
                self.items.push((module.to_string(), "variant", name));
            }
            while !self.done() && !matches!(self.tok(0), "," | "}") {
                if matches!(self.tok(0), "(" | "[" | "{") {
                    self.skip_group();
                } else {
                    self.i += 1;
                }
            }
            if self.tok(0) == "," {
                self.i += 1;
            }
        }
        self.i += 1;
    }

    /// Records the methods of the trait whose body opens at the cursor.
    fn trait_methods(&mut self, module: &str, owner: &str, public: bool) {
        self.i += 1;
        while !self.done() && self.tok(0) != "}" {
            if self.skip_attrs() {
                self.skip_item();
                continue;
            }
            self.skip_qualifiers();
            if public && self.tok(0) == "fn" {
                let name = format!("{owner}::{}", self.tok(1));
                self.items.push((module.to_string(), "method", name));
            }
            self.skip_item();
        }
        self.i += 1;
    }

    /// Reads an `impl` block whose header starts at the cursor: an
    /// inherent impl's `pub` fns and consts are noted under its type, a
    /// trait impl adds nothing.
    fn impl_block(&mut self, module: &str) {
        let header = self.skip_signature();
        let mut angle = 0i32;
        let mut owner = None;
        for tok in &header {
            match tok.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "for" if angle == 0 => {
                    owner = None;
                    break;
                }
                "where" if angle == 0 => break,
                t if angle == 0 && t != "dyn" && t.starts_with(|c: char| c.is_alphabetic()) => {
                    owner = Some(t.to_string());
                }
                _ => {}
            }
        }
        let Some(owner) = owner else {
            self.skip_item();
            return;
        };
        self.i += 1;
        while !self.done() && self.tok(0) != "}" {
            if self.skip_attrs() {
                self.skip_item();
                continue;
            }
            let public = self.visibility();
            self.skip_qualifiers();
            let kind = match self.tok(0) {
                "fn" => "fn",
                "const" => "const",
                _ => "",
            };
            if public && !kind.is_empty() {
                let name = self.tok(1).to_string();
                self.impl_members
                    .push((module.to_string(), owner.clone(), kind, name));
            }
            self.skip_item();
        }
        self.i += 1;
    }
}

/// Joins a `use` tree's tokens back into one line.
fn join(toks: &[String]) -> String {
    let word = |t: &str| t.starts_with(|c: char| c.is_alphanumeric() || c == '_');
    let mut out = String::new();
    let mut prev = "";
    for (k, t) in toks.iter().enumerate() {
        // A trailing comma is layout, not surface.
        if t == "," && toks.get(k + 1).is_some_and(|n| n == "}") {
            continue;
        }
        if (word(prev) && word(t)) || prev == "," {
            out.push(' ');
        }
        out.push_str(t);
        prev = t;
    }
    out
}

// ----------------------------------------------------------------- walker

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "bin") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The module path of `file` in the crate named `krate` rooted at `src`.
fn module_path(krate: &str, src: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(src).expect("file under src");
    let mut parts = vec![krate.to_string()];
    for comp in rel.with_extension("").components() {
        let part = comp.as_os_str().to_string_lossy().into_owned();
        if !matches!(part.as_str(), "lib" | "mod") {
            parts.push(part);
        }
    }
    parts.join("::")
}

/// The package name a `Cargo.toml` declares, as a crate name.
fn package_name(manifest: &Path) -> String {
    let text = read(manifest);
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("name"))
        .expect("package name");
    line.split('"')
        .nth(1)
        .expect("quoted name")
        .replace('-', "_")
}

/// Every public item of one crate, given as `(module path, source)` per
/// file.
fn crate_surface(files: &[(String, String)]) -> Vec<String> {
    let mut items = Vec::new();
    let mut impl_members = Vec::new();
    for (module, text) in files {
        let toks = tokens(text);
        let mut scanner = Scanner {
            t: &toks,
            i: 0,
            items: Vec::new(),
            impl_members: Vec::new(),
        };
        scanner.items(module);
        items.extend(scanner.items);
        impl_members.extend(scanner.impl_members);
    }
    let public_types: BTreeSet<&str> = items
        .iter()
        .filter(|(_, kind, _)| matches!(*kind, "struct" | "enum" | "type" | "trait"))
        .map(|(_, _, name)| name.as_str())
        .collect();
    let mut lines: Vec<String> = impl_members
        .iter()
        .filter(|(_, owner, _, _)| public_types.contains(owner.as_str()))
        .map(|(module, owner, kind, name)| format!("{module}: {kind} {owner}::{name}"))
        .collect();
    lines.extend(
        items
            .iter()
            .map(|(module, kind, name)| format!("{module}: {kind} {name}")),
    );
    lines.sort();
    lines
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The workspace's public surface, one sorted line per item.
fn surface(root: &Path) -> Vec<String> {
    let facade = root.join("src/lib.rs");
    let mut lines = crate_surface(&[("reasoned_scheduler".to_string(), read(&facade))]);
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    crates.sort();
    for dir in crates {
        let krate = package_name(&dir.join("Cargo.toml"));
        let src = dir.join("src");
        let mut paths = Vec::new();
        rust_files(&src, &mut paths);
        let files: Vec<(String, String)> = paths
            .iter()
            .map(|path| (module_path(&krate, &src, path), read(path)))
            .collect();
        lines.extend(crate_surface(&files));
    }
    lines.sort();
    lines
}

#[test]
fn the_public_surface_matches_its_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let actual = surface(root);
    let pins = root.join(PINS_PATH);
    if std::env::var("PIN_REGEN").as_deref() == Ok("1") {
        std::fs::write(&pins, actual.join("\n") + "\n").expect("write api pins");
        return;
    }
    let expected = std::fs::read_to_string(&pins)
        .expect("api pins missing; write them with PIN_REGEN=1 cargo test --test public_api");
    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for line in &actual {
        *counts.entry(line).or_default() += 1;
    }
    for line in expected.lines() {
        *counts.entry(line).or_default() -= 1;
    }
    let diff: Vec<String> = counts
        .iter()
        .filter(|(_, n)| **n != 0)
        .map(|(line, n)| format!("{} {line}", if *n > 0 { '+' } else { '-' }))
        .collect();
    assert!(
        diff.is_empty(),
        "the public surface differs from {PINS_PATH} (+ added, - removed):\n{}\n\
         declare the change with PIN_REGEN=1 cargo test --test public_api",
        diff.join("\n")
    );
}

/// The lexer and parser on a hand-written module: restricted items, trait
/// impls, braces in literals and `#[cfg(test)]` items stay out.
#[test]
fn the_scanner_lists_what_is_public_and_nothing_else() {
    let src = r##"
        //! pub fn in_a_comment() {}
        pub use crate::a::{B, C as D,
            E,};
        pub(crate) fn narrow() {}
        pub fn wide<T: Fn(u32) -> u32>(f: T) -> &'static str { let _ = '{'; "}" }
        pub struct S<'a> { pub x: Vec<(u8, u8)>, y: &'a str, pub(crate) z: u8 }
        pub struct T(pub u32, u8);
        struct Hidden { pub h: u8 }
        pub enum E { A, B(u8, u8), C { x: u8 } = 3 }
        pub trait Tr { fn m(&self); fn n(&self) -> u8 { 0 } type X; }
        impl<'a> S<'a> where 'a: 'static { pub fn new() -> Self { todo!() } fn private() {} }
        impl Hidden { pub fn hidden() {} }
        impl Tr for T { fn m(&self) {} }
        pub const K: S = S { x: r#"}"#, y: "{" };
        pub mod inner { pub static G: u8 = 0; pub type Alias = u8; }
        macro_rules! m { () => { pub fn generated() {} } }
        m! { pub fn in_a_call() {} }
        #[cfg(test)]
        mod tests { pub fn test_only() {} }
        #[cfg(test)]
        impl S<'_> { pub fn test_helper() {} }
        impl T { #[cfg(test)] pub fn test_method() {} pub fn get(&self) -> u32 { self.0 } }
        pub fn after_the_tests() {}
    "##;
    let lines = crate_surface(&[("k".to_string(), src.to_string())]);
    let want = [
        "k: const K",
        "k: enum E",
        "k: field S.x",
        "k: field T.0",
        "k: fn S::new",
        "k: fn T::get",
        "k: fn after_the_tests",
        "k: fn wide",
        "k: method Tr::m",
        "k: method Tr::n",
        "k: mod inner",
        "k: struct S",
        "k: struct T",
        "k: trait Tr",
        "k: use crate::a::{B, C as D, E}",
        "k: variant E::A",
        "k: variant E::B",
        "k: variant E::C",
        "k::inner: static G",
        "k::inner: type Alias",
    ];
    assert_eq!(lines, want);
}
