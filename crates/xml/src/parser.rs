//! A hand-rolled, dependency-free XML parser covering the subset the
//! mediator wire format needs: elements, attributes, text with the five
//! predefined entities plus numeric character references, comments, CDATA
//! sections, processing instructions, and a (skipped) DOCTYPE.
//!
//! Not supported (not needed for the wire format): external entities,
//! namespaces beyond verbatim `prefix:name` tags, and DTD validation.
//!
//! Bundles arrive over the wire, so nesting is bounded: elements may nest
//! at most [`MAX_DEPTH`] levels deep; deeper input is a parse error, not
//! a stack overflow.

use crate::dom::{Document, Element, Node};
use crate::error::XmlError;

/// How deeply elements may nest (the document element is level 1). The
/// same bound the Datalog and FL parsers put on their nesting.
pub const MAX_DEPTH: usize = 128;

/// Parses an XML document.
pub fn parse(src: &str) -> Result<Document, XmlError> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
        depth: 1,
    };
    p.skip_misc()?;
    let root = p.element()?;
    p.skip_misc()?;
    if !p.at_end() {
        return Err(p.err("content after document element"));
    }
    Ok(Document { root })
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Nesting level of the element being parsed (see [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> XmlError {
        let line = 1 + self.src[..self.pos.min(self.src.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        XmlError::Parse {
            offset: self.pos,
            line,
            message: msg.to_string(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> u8 {
        self.src.get(self.pos).copied().unwrap_or(0)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos.min(self.src.len())..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while !self.at_end() && self.peek().is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, PIs, XML declaration, and DOCTYPE.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Skip to the matching '>' (internal subsets use brackets).
                self.pos += "<!DOCTYPE".len();
                let mut depth = 0usize;
                loop {
                    if self.at_end() {
                        return Err(self.err("unterminated DOCTYPE"));
                    }
                    match self.src[self.pos] {
                        b'[' => depth += 1,
                        b']' => depth = depth.saturating_sub(1),
                        b'>' if depth == 0 => {
                            self.pos += 1;
                            break;
                        }
                        _ => {}
                    }
                    self.pos += 1;
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        while !self.at_end() {
            if self.starts_with(end) {
                self.pos += end.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(&format!("expected `{end}`")))
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        let is_start = |b: u8| b.is_ascii_alphabetic() || b == b'_' || b == b':';
        let is_cont = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.');
        if !is_start(self.peek()) {
            return Err(self.err("expected name"));
        }
        self.pos += 1;
        while is_cont(self.peek()) {
            self.pos += 1;
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn element(&mut self) -> Result<Element, XmlError> {
        if self.peek() != b'<' {
            return Err(self.err("expected `<`"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut elem = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                b'>' => {
                    self.pos += 1;
                    break;
                }
                b'/' => {
                    self.pos += 1;
                    if self.peek() != b'>' {
                        return Err(self.err("expected `>` after `/`"));
                    }
                    self.pos += 1;
                    return Ok(elem);
                }
                0 => return Err(self.err("unterminated start tag")),
                _ => {
                    let key = self.name()?;
                    self.skip_ws();
                    if self.peek() != b'=' {
                        return Err(self.err("expected `=` in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while !self.at_end() && self.peek() != quote {
                        self.pos += 1;
                    }
                    if self.at_end() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                    self.pos += 1;
                    elem.attrs
                        .push((key, decode_entities(&raw, || self.err("bad entity"))?));
                }
            }
        }
        // Content until matching close tag.
        loop {
            if self.at_end() {
                return Err(self.err(&format!("missing </{}>", elem.name)));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != elem.name {
                    return Err(self.err(&format!(
                        "mismatched close tag: expected </{}>, found </{close}>",
                        elem.name
                    )));
                }
                self.skip_ws();
                if self.peek() != b'>' {
                    return Err(self.err("expected `>` in close tag"));
                }
                self.pos += 1;
                return Ok(elem);
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let start = self.pos;
                while !self.at_end() && !self.starts_with("]]>") {
                    self.pos += 1;
                }
                if self.at_end() {
                    return Err(self.err("unterminated CDATA"));
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.pos += 3;
                push_text(&mut elem, text);
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == b'<' {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("elements nest deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let child = self.element()?;
                self.depth -= 1;
                elem.children.push(Node::Element(child));
            } else {
                let start = self.pos;
                while !self.at_end() && self.peek() != b'<' {
                    self.pos += 1;
                }
                let raw = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                let text = decode_entities(&raw, || self.err("bad entity"))?;
                if !text.trim().is_empty() {
                    push_text(&mut elem, text);
                }
            }
        }
    }
}

fn push_text(elem: &mut Element, text: String) {
    if let Some(Node::Text(prev)) = elem.children.last_mut() {
        prev.push_str(&text);
    } else {
        elem.children.push(Node::Text(text));
    }
}

fn decode_entities(raw: &str, err: impl Fn() -> XmlError) -> Result<String, XmlError> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest.find(';').ok_or_else(&err)?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16).map_err(|_| err())?;
                out.push(char::from_u32(code).ok_or_else(&err)?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..].parse().map_err(|_| err())?;
                out.push(char::from_u32(code).ok_or_else(&err)?);
            }
            _ => return Err(err()),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse(r#"<a x="1"><b>hi</b><b/></a>"#).unwrap();
        assert_eq!(doc.root.name, "a");
        assert_eq!(doc.root.attr("x"), Some("1"));
        assert_eq!(doc.root.elements_named("b").count(), 2);
        assert_eq!(doc.root.first_named("b").unwrap().text(), "hi");
    }

    #[test]
    fn skips_prolog_doctype_comments() {
        let doc = parse(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE a [ <!ELEMENT a ANY> ]>\n\
             <!-- header --><a><!-- inner -->x</a><!-- trailer -->",
        )
        .unwrap();
        assert_eq!(doc.root.text(), "x");
    }

    #[test]
    fn decodes_entities() {
        let doc = parse(r#"<a k="&lt;&amp;&gt;">&quot;&#65;&#x42;&apos;</a>"#).unwrap();
        assert_eq!(doc.root.attr("k"), Some("<&>"));
        assert_eq!(doc.root.text(), "\"AB'");
    }

    #[test]
    fn cdata_is_verbatim() {
        let doc = parse("<a><![CDATA[<not & parsed>]]></a>").unwrap();
        assert_eq!(doc.root.text(), "<not & parsed>");
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<a k='v'/>").unwrap();
        assert_eq!(doc.root.attr("k"), Some("v"));
    }

    #[test]
    fn mismatched_close_tag_errors() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched"));
    }

    #[test]
    fn content_after_root_errors() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unterminated_errors_have_line_numbers() {
        let err = parse("<a>\n<b>\n").unwrap_err();
        let XmlError::Parse { line, .. } = err else {
            panic!()
        };
        assert!(line >= 2, "line = {line}");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 1);
    }

    #[test]
    fn namespaced_names_kept_verbatim() {
        let doc = parse("<gcm:class gcm:name=\"Neuron\"/>").unwrap();
        assert_eq!(doc.root.name, "gcm:class");
        assert_eq!(doc.root.attr("gcm:name"), Some("Neuron"));
    }

    #[test]
    fn roundtrip_through_serializer() {
        let src =
            r#"<cm name="SYNAPSE"><class name="spine"><attr n="len" t="float"/></class></cm>"#;
        let doc = parse(src).unwrap();
        let out = crate::serialize::to_string(&doc.root);
        let doc2 = parse(&out).unwrap();
        assert_eq!(doc.root, doc2.root);
    }
}
