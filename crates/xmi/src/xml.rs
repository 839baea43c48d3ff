//! Minimal XML: a node tree, an escaping writer, and a recursive-descent
//! parser. Supports elements, attributes, text content, self-closing
//! tags, comments, processing instructions/XML declarations (skipped),
//! and the five predefined entities. No namespaces semantics (prefixes
//! are kept as literal name parts), no DTDs, no CDATA.

use std::fmt;

/// One XML element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlNode {
    /// Element name (prefix kept verbatim, e.g. `UML:Model`).
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated text content directly under this element.
    pub text: String,
}

impl XmlNode {
    /// Creates an element with a name.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode { name: name.into(), ..XmlNode::default() }
    }

    /// Adds an attribute, builder style.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Adds a child, builder style.
    pub fn child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// Looks up an attribute value.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// First child with the given name.
    pub fn find_child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given name.
    pub fn find_children<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> {
        self.children.iter().filter(move |c| c.name == name)
    }
}

/// XML parse/serialize failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Explanation.
    pub message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.offset)
    }
}

impl std::error::Error for XmlError {}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
}

/// The declaration every written document starts with.
pub(crate) const DECLARATION: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";

/// Serializes a node tree to a document string with an XML declaration.
pub fn write_xml(root: &XmlNode) -> String {
    let mut out = String::from(DECLARATION);
    write_node(root, 0, &mut out);
    out
}

/// Writes `node` and its subtree at `indent` levels.
pub(crate) fn write_node(node: &XmlNode, indent: usize, out: &mut String) {
    write_start(node, indent, out);
    if node.children.is_empty() && node.text.is_empty() {
        out.push_str("/>\n");
        return;
    }
    out.push('>');
    escape(&node.text, out);
    if !node.children.is_empty() {
        out.push('\n');
        for c in &node.children {
            write_node(c, indent + 1, out);
        }
        push_indent(indent, out);
    }
    write_end(node, out);
}

/// Writes what [`write_node`] writes before the children of `node`, a
/// node whose children the caller writes itself: it must get at least
/// one and carry no text. [`write_close`] writes what comes after them.
pub(crate) fn write_open(node: &XmlNode, indent: usize, out: &mut String) {
    debug_assert!(node.text.is_empty(), "an opened node carries no text");
    write_start(node, indent, out);
    out.push_str(">\n");
}

/// Closes a node [`write_open`] opened at `indent`.
pub(crate) fn write_close(node: &XmlNode, indent: usize, out: &mut String) {
    push_indent(indent, out);
    write_end(node, out);
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// The indent, `<`, name and attributes of the start tag.
fn write_start(node: &XmlNode, indent: usize, out: &mut String) {
    push_indent(indent, out);
    out.push('<');
    out.push_str(&node.name);
    for (k, v) in &node.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape(v, out);
        out.push('"');
    }
}

fn write_end(node: &XmlNode, out: &mut String) {
    out.push_str("</");
    out.push_str(&node.name);
    out.push_str(">\n");
}

/// Parses a document into its root element.
///
/// # Errors
/// Returns [`XmlError`] describing the first syntax problem, or the
/// first element nested more than 256 levels deep.
pub fn parse_xml(source: &str) -> Result<XmlNode, XmlError> {
    let mut p = XmlParser { src: source.as_bytes(), pos: 0, depth: 0 };
    p.skip_prolog();
    let root = p.element()?;
    p.skip_misc();
    if p.pos < p.src.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(root)
}

/// How deeply elements may nest before [`parse_xml`] rejects the
/// document. The parser recurses once per level, so the bound keeps a
/// hostile input from overflowing the stack; `export_model` writes five
/// levels plus one per nested tagged-value list.
const MAX_DEPTH: usize = 256;

struct XmlParser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Elements currently open.
    depth: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, message: &str) -> XmlError {
        XmlError { message: message.to_owned(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while self.peek().map(|c| (c as char).is_ascii_whitespace()).unwrap_or(false) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_misc();
    }

    /// Skips whitespace, comments, PIs and the XML declaration.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                while self.pos < self.src.len() && !self.starts_with("?>") {
                    self.pos += 1;
                }
                self.pos = (self.pos + 2).min(self.src.len());
            } else if self.starts_with("<!--") {
                while self.pos < self.src.len() && !self.starts_with("-->") {
                    self.pos += 1;
                }
                self.pos = (self.pos + 3).min(self.src.len());
            } else {
                return;
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ch = c as char;
            if ch.is_ascii_alphanumeric() || matches!(ch, ':' | '_' | '-' | '.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn unescape(&self, raw: &str, at: usize) -> Result<String, XmlError> {
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.char_indices();
        while let Some((i, c)) = chars.next() {
            if c != '&' {
                out.push(c);
                continue;
            }
            let rest = &raw[i + 1..];
            let semi = rest
                .find(';')
                .ok_or(XmlError { message: "unterminated entity".into(), offset: at + i })?;
            let entity = &rest[..semi];
            out.push(match entity {
                "amp" => '&',
                "lt" => '<',
                "gt" => '>',
                "quot" => '"',
                "apos" => '\'',
                other => {
                    if let Some(hex) = other.strip_prefix("#x") {
                        char::from_u32(u32::from_str_radix(hex, 16).unwrap_or(0)).ok_or(
                            XmlError { message: "bad char reference".into(), offset: at + i },
                        )?
                    } else if let Some(dec) = other.strip_prefix('#') {
                        char::from_u32(dec.parse().unwrap_or(0)).ok_or(XmlError {
                            message: "bad char reference".into(),
                            offset: at + i,
                        })?
                    } else {
                        return Err(XmlError {
                            message: format!("unknown entity `&{other};`"),
                            offset: at + i,
                        });
                    }
                }
            });
            // Advance the iterator past the entity.
            for _ in 0..=semi {
                chars.next();
            }
        }
        Ok(out)
    }

    fn attribute(&mut self) -> Result<(String, String), XmlError> {
        let key = self.name()?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(self.err("expected `=` in attribute"));
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while self.peek().map(|c| c != quote).unwrap_or(false) {
            self.pos += 1;
        }
        if self.peek() != Some(quote) {
            return Err(self.err("unterminated attribute value"));
        }
        let raw = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        let value = self.unescape(&raw, start)?;
        self.pos += 1;
        Ok((key, value))
    }

    fn element(&mut self) -> Result<XmlNode, XmlError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let node = self.element_at_depth();
        self.depth -= 1;
        node
    }

    /// Parses one element and its content; [`XmlParser::element`]
    /// accounts for its depth.
    fn element_at_depth(&mut self) -> Result<XmlNode, XmlError> {
        self.skip_ws();
        if self.peek() != Some(b'<') {
            return Err(self.err("expected `<`"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut node = XmlNode::new(name.clone());
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected `>` after `/`"));
                    }
                    self.pos += 1;
                    return Ok(node);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let (k, v) = self.attribute()?;
                    node.attrs.push((k, v));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
        // Content.
        loop {
            // Text run.
            let start = self.pos;
            while self.peek().map(|c| c != b'<').unwrap_or(false) {
                self.pos += 1;
            }
            if self.pos > start {
                let raw = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                let text = self.unescape(&raw, start)?;
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    node.text.push_str(trimmed);
                }
            }
            if self.peek().is_none() {
                return Err(self.err("unexpected end of input in content"));
            }
            if self.starts_with("<!--") {
                while self.pos < self.src.len() && !self.starts_with("-->") {
                    self.pos += 1;
                }
                self.pos = (self.pos + 3).min(self.src.len());
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return Err(self.err(&format!("mismatched close tag `{close}` for `{name}`")));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected `>` in close tag"));
                }
                self.pos += 1;
                return Ok(node);
            }
            let child = self.element()?;
            node.children.push(child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_round_trip() {
        let doc = XmlNode::new("root")
            .attr("a", "1")
            .attr("weird", "a<b&\"c'")
            .child(XmlNode::new("child").attr("x", "y"))
            .child({
                let mut t = XmlNode::new("text");
                t.text = "hello <world> & 'friends'".into();
                t
            });
        let s = write_xml(&doc);
        let back = parse_xml(&s).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn parses_declaration_comments_and_self_closing() {
        let src = r#"<?xml version="1.0"?>
<!-- a comment -->
<a>
  <!-- inner -->
  <b x="1"/>
  <c></c>
</a>"#;
        let n = parse_xml(src).unwrap();
        assert_eq!(n.name, "a");
        assert_eq!(n.children.len(), 2);
        assert_eq!(n.find_child("b").unwrap().get_attr("x"), Some("1"));
        assert!(n.find_child("c").unwrap().children.is_empty());
        assert_eq!(n.find_children("b").count(), 1);
    }

    #[test]
    fn entities_decoded() {
        let n = parse_xml("<a t=\"&lt;&amp;&gt;&quot;&apos;\">&#65;&#x42;</a>").unwrap();
        assert_eq!(n.get_attr("t"), Some("<&>\"'"));
        assert_eq!(n.text, "AB");
    }

    #[test]
    fn errors() {
        assert!(parse_xml("<a>").is_err());
        assert!(parse_xml("<a></b>").is_err());
        assert!(parse_xml("<a x=1/>").is_err());
        assert!(parse_xml("<a/><b/>").is_err());
        assert!(parse_xml("<a>&bogus;</a>").is_err());
        assert!(parse_xml("no tags").is_err());
        let e = parse_xml("<a></b>").unwrap_err();
        assert!(e.to_string().contains("mismatched"));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse_xml(&nested(MAX_DEPTH)).is_ok());
        let e = parse_xml(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nested deeper than"), "{e}");
        // Far past the bound: a typed error, not a stack overflow.
        assert!(parse_xml(&nested(100_000)).is_err());
        assert!(parse_xml(&"<a>".repeat(100_000)).is_err());
    }

    #[test]
    fn namespace_prefixes_are_literal() {
        let n = parse_xml("<UML:Model xmi.id=\"1\"><UML:Class/></UML:Model>").unwrap();
        assert_eq!(n.name, "UML:Model");
        assert_eq!(n.get_attr("xmi.id"), Some("1"));
        assert_eq!(n.children[0].name, "UML:Class");
    }
}
