//! Offline stand-ins for serde's derive macros.
//!
//! `#[derive(Serialize)]` now generates a real implementation of the shim's
//! `serde::Serialize` trait (JSON emission — see `shims/serde`).  Because no
//! `syn`/`quote` are available offline, the input item is parsed directly
//! from the raw token stream; the supported grammar is exactly what the
//! workspace uses:
//!
//! * structs with named fields (no generics),
//! * enums whose variants are unit (optionally with `= discriminant`) or
//!   single-field tuple ("newtype") variants.
//!
//! Unit variants serialize as their name (`"Acl"`); newtype variants use
//! serde's externally-tagged form (`{"Matched":7}`), so the output matches
//! what upstream serde_json would produce for the same types.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Generates a JSON `Serialize` implementation for a struct with named
/// fields or a unit/newtype enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(item: TokenStream) -> TokenStream {
    match parse_item(item) {
        Ok(Item::Struct { name, fields }) => {
            let mut body = String::from("__w.begin_object();");
            for field in &fields {
                body.push_str(&format!(
                    "__w.key(\"{field}\");::serde::Serialize::serialize(&self.{field}, __w);"
                ));
            }
            body.push_str("__w.end_object();");
            emit_impl(&name, &body)
        }
        Ok(Item::Enum { name, variants }) => {
            let mut arms = String::new();
            for variant in &variants {
                match variant {
                    Variant::Unit(v) => {
                        arms.push_str(&format!("{name}::{v} => __w.string(\"{v}\"),"));
                    }
                    Variant::Newtype(v) => {
                        arms.push_str(&format!(
                            "{name}::{v}(__inner) => {{ __w.begin_object(); __w.key(\"{v}\"); \
                             ::serde::Serialize::serialize(__inner, __w); __w.end_object(); }}"
                        ));
                    }
                }
            }
            emit_impl(&name, &format!("match self {{ {arms} }}"))
        }
        Err(msg) => {
            let msg = msg.replace(['"', '\\'], "'");
            format!("compile_error!(\"derive(Serialize) shim: {msg}\");")
                .parse()
                .unwrap()
        }
    }
}

fn emit_impl(name: &str, body: &str) -> TokenStream {
    format!(
        "impl ::serde::Serialize for {name} {{\
           fn serialize(&self, __w: &mut ::serde::json::JsonWriter) {{ {body} }}\
         }}"
    )
    .parse()
    .expect("derive(Serialize) shim generated invalid Rust")
}

enum Item {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

enum Variant {
    Unit(String),
    Newtype(String),
}

/// Parses the derive input far enough to recover the item name and its
/// fields/variants.  Attributes (including doc comments) and visibility are
/// skipped; generic parameters are rejected.
fn parse_item(item: TokenStream) -> Result<Item, String> {
    let mut tokens = item.into_iter().peekable();
    skip_attributes_and_visibility(&mut tokens);

    let kind = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };

    let body = loop {
        match tokens.next() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                break group.stream();
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                return Err(format!("generic type `{name}` is not supported"));
            }
            Some(_) => continue,
            None => {
                return Err(format!(
                    "`{name}` has no braced body (tuple/unit items are \
                                        not supported)"
                ))
            }
        }
    };

    match kind.as_str() {
        "struct" => Ok(Item::Struct {
            name,
            fields: parse_named_fields(body)?,
        }),
        "enum" => Ok(Item::Enum {
            name,
            variants: parse_variants(body)?,
        }),
        other => Err(format!("unsupported item kind `{other}`")),
    }
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn skip_attributes_and_visibility(tokens: &mut Tokens) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next(); // '#'
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(ident)) if ident.to_string() == "pub" => {
                tokens.next(); // 'pub'
                               // Optional restriction: pub(crate), pub(super), ...
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            _ => return,
        }
    }
}

/// Skips the tokens of one type (or discriminant expression) up to a
/// top-level comma, tracking `<`/`>` nesting so commas inside generic
/// arguments don't terminate early.  Groups are single tokens, so brackets,
/// parens and braces nest for free.  Consumes the trailing comma if present.
fn skip_to_field_end(tokens: &mut Tokens) {
    let mut angle_depth = 0usize;
    for token in tokens.by_ref() {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
    }
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut tokens: Tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attributes_and_visibility(&mut tokens);
        let name = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, got {other:?} (tuple structs are not \
                     supported)"
                ))
            }
        }
        skip_to_field_end(&mut tokens);
        fields.push(name);
    }
    Ok(fields)
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut tokens: Tokens = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attributes_and_visibility(&mut tokens);
        let name = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        match tokens.peek() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Parenthesis => {
                if count_top_level_fields(group.stream()) != 1 {
                    return Err(format!(
                        "variant `{name}`: only single-field tuple variants are supported"
                    ));
                }
                tokens.next();
                skip_to_field_end(&mut tokens);
                variants.push(Variant::Newtype(name));
            }
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                return Err(format!(
                    "variant `{name}`: struct variants are not supported"
                ));
            }
            _ => {
                // Unit variant, possibly with `= discriminant`.
                skip_to_field_end(&mut tokens);
                variants.push(Variant::Unit(name));
            }
        }
    }
    Ok(variants)
}

/// Counts comma-separated chunks at the top level of a tuple-variant body.
fn count_top_level_fields(stream: TokenStream) -> usize {
    let mut tokens: Tokens = stream.into_iter().peekable();
    if tokens.peek().is_none() {
        return 0;
    }
    let mut fields = 1;
    let mut angle_depth = 0usize;
    let mut saw_tokens_since_comma = true;
    for token in tokens {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    saw_tokens_since_comma = false;
                    continue;
                }
                _ => {}
            }
        }
        if !saw_tokens_since_comma {
            fields += 1;
            saw_tokens_since_comma = true;
        }
    }
    fields
}
