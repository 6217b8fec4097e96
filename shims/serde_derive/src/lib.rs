//! The derive macro of the vendored `serde` shim.
//!
//! Implements `#[derive(Serialize)]` for the shapes this workspace uses —
//! non-generic structs (named, tuple and unit) and enums (unit, tuple and
//! struct variants) — honouring the `#[serde(transparent)]` attribute on
//! single-field structs. Serialisation only: the workspace writes typed
//! values but reads back only untyped JSON.
//!
//! The parser walks the raw `proc_macro::TokenStream` directly instead of
//! pulling in `syn`/`quote` (unavailable offline). Unsupported shapes produce
//! a `compile_error!` with a pointer to this file.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Input {
    name: String,
    transparent: bool,
    data: Data,
}

#[derive(Debug)]
enum Data {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// `#[derive(Serialize)]` — implements `serde::Serialize` via `to_value`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(msg) => compile_error(&msg),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let mut transparent = false;

    // Outer attributes (`#[serde(transparent)]`, doc comments, ...).
    while let Some(TokenTree::Punct(p)) = tokens.get(pos) {
        if p.as_char() != '#' {
            break;
        }
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                if attr_is_serde_transparent(g.stream())? {
                    transparent = true;
                }
                pos += 1;
            }
            _ => return Err("serde_derive: malformed attribute".into()),
        }
    }

    // Visibility.
    if matches!(tokens.get(pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        pos += 1;
        if matches!(tokens.get(pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            pos += 1;
        }
    }

    let kind = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde_derive: expected struct/enum, found {other:?}"
            ))
        }
    };
    pos += 1;

    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("serde_derive: expected type name, found {other:?}")),
    };
    pos += 1;

    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde_derive: generic type {name} is not supported by the vendored shim"
        ));
    }

    let data = match (kind.as_str(), tokens.get(pos)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Data::NamedStruct(parse_named_fields(g.stream())?)
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Data::TupleStruct(count_tuple_fields(g.stream())?)
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Data::UnitStruct,
        ("struct", None) => Data::UnitStruct,
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Data::Enum(parse_variants(g.stream())?)
        }
        (k, other) => {
            return Err(format!(
                "serde_derive: unsupported item shape ({k}, next token {other:?})"
            ))
        }
    };

    Ok(Input {
        name,
        transparent,
        data,
    })
}

/// Inspects a bracket-group attribute body: returns `Ok(true)` for
/// `serde(transparent)`, `Ok(false)` for non-serde attributes, and an error
/// for any other `serde(...)` argument — the shim must not let `rename`,
/// `skip`, `default`, `tag`, ... compile as silent no-ops.
fn attr_is_serde_transparent(stream: TokenStream) -> Result<bool, String> {
    let mut iter = stream.into_iter();
    match (iter.next(), iter.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            let mut transparent = false;
            for token in args.stream() {
                match &token {
                    TokenTree::Ident(i) if i.to_string() == "transparent" => transparent = true,
                    TokenTree::Punct(p) if p.as_char() == ',' => {}
                    other => {
                        return Err(format!(
                            "serde_derive shim: unsupported serde attribute argument `{other}` \
                             (only `transparent` is implemented; see shims/serde_derive)"
                        ))
                    }
                }
            }
            Ok(transparent)
        }
        _ => Ok(false),
    }
}

/// Skips attributes (`#` + bracket group) at `pos`, rejecting any `serde(...)`
/// attribute: field- and variant-level serde attributes are not implemented,
/// and skipping them silently would change the wire format behind the
/// author's back.
fn skip_attrs(tokens: &[TokenTree], mut pos: usize) -> Result<usize, String> {
    while matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        match tokens.get(pos + 1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                let mut inner = g.stream().into_iter();
                if matches!(inner.next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
                    return Err(
                        "serde_derive shim: field/variant-level #[serde(...)] attributes are \
                         not implemented (see shims/serde_derive)"
                            .into(),
                    );
                }
                pos += 2;
            }
            _ => break,
        }
    }
    Ok(pos)
}

fn skip_visibility(tokens: &[TokenTree], mut pos: usize) -> usize {
    if matches!(tokens.get(pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        pos += 1;
        if matches!(tokens.get(pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            pos += 1;
        }
    }
    pos
}

/// Advances past a type, stopping at a `,` that sits outside any `<...>`
/// nesting (groups are atomic in a token stream, so only angle brackets need
/// explicit depth tracking).
fn skip_type(tokens: &[TokenTree], mut pos: usize) -> usize {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(pos) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => break,
                _ => {}
            }
        }
        pos += 1;
    }
    pos
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        pos = skip_visibility(&tokens, skip_attrs(&tokens, pos)?);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde_derive: expected field name, found {other:?}"
                ))
            }
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => return Err(format!("serde_derive: expected ':', found {other:?}")),
        }
        pos = skip_type(&tokens, pos);
        fields.push(name);
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            pos += 1;
        }
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> Result<usize, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return Ok(0);
    }
    let mut count = 0;
    let mut pos = 0;
    while pos < tokens.len() {
        pos = skip_visibility(&tokens, skip_attrs(&tokens, pos)?);
        if pos >= tokens.len() {
            break;
        }
        pos = skip_type(&tokens, pos);
        count += 1;
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            pos += 1;
        }
    }
    Ok(count)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        pos = skip_attrs(&tokens, pos)?;
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde_derive: expected variant name, found {other:?}"
                ))
            }
        };
        pos += 1;
        let kind = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                VariantKind::Named(parse_named_fields(g.stream())?)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional explicit discriminant (`= expr`) up to the comma.
        while pos < tokens.len()
            && !matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',')
        {
            pos += 1;
        }
        if pos < tokens.len() {
            pos += 1; // the comma
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.data {
        Data::NamedStruct(fields) if input.transparent && fields.len() == 1 => {
            format!("::serde::Serialize::to_value(&self.{})", fields[0])
        }
        Data::NamedStruct(fields) => {
            let mut s = String::from("{ let mut __map = ::serde::value::Map::new();\n");
            for f in fields {
                s.push_str(&format!(
                    "__map.insert(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f}));\n"
                ));
            }
            s.push_str("::serde::value::Value::Object(__map) }");
            s
        }
        Data::TupleStruct(1) if input.transparent => {
            "::serde::Serialize::to_value(&self.0)".to_string()
        }
        Data::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::value::Value::Array(vec![{}])", items.join(", "))
        }
        Data::UnitStruct => "::serde::value::Value::Null".to_string(),
        Data::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::value::Value::String(::std::string::String::from({vname:?})),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let payload = if *n == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binders
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::value::Value::Array(vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({binds}) => {{ let mut __map = ::serde::value::Map::new(); __map.insert(::std::string::String::from({vname:?}), {payload}); ::serde::value::Value::Object(__map) }},\n",
                            binds = binders.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let mut inner = String::from(
                            "{ let mut __inner = ::serde::value::Map::new();\n",
                        );
                        for f in fields {
                            inner.push_str(&format!(
                                "__inner.insert(::std::string::String::from({f:?}), ::serde::Serialize::to_value({f}));\n"
                            ));
                        }
                        inner.push_str("::serde::value::Value::Object(__inner) }");
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {binds} }} => {{ let mut __map = ::serde::value::Map::new(); __map.insert(::std::string::String::from({vname:?}), {inner}); ::serde::value::Value::Object(__map) }},\n",
                            binds = fields.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n fn to_value(&self) -> ::serde::value::Value {{ {body} }}\n}}\n"
    )
}
