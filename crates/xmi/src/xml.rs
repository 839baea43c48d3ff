//! Minimal XML: a streaming, escaping tag writer, and a recursive-descent
//! parser into a node tree. The parser supports elements, attributes,
//! text content, self-closing tags, comments, processing
//! instructions/XML declarations (skipped), and the five predefined
//! entities. No namespaces semantics (prefixes are kept as literal name
//! parts), no DTDs, no CDATA.

use std::fmt::{self, Write as _};

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
    #[cfg(test)]
    pub(crate) fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Adds a child, builder style.
    #[cfg(test)]
    pub(crate) fn child(mut self, child: XmlNode) -> Self {
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

/// Whether `b` is one of the five characters [`escape`] replaces.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'&' | b'<' | b'>' | b'"' | b'\'')
}

/// Appends `s` with the five predefined entities escaped; a value that
/// holds none of them is copied whole.
fn escape(s: &str, out: &mut String) {
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
        return;
    }
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

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// A streaming writer for one element: [`Tag::open`] writes the indent
/// and `<name`, [`Tag::attr`] appends attributes, [`Tag::child`] and
/// [`Tag::content`] write what the element contains, and [`Tag::close`]
/// ends it with `/>` if nothing was written inside and with `</name>`
/// otherwise. Attributes go in the start tag, so every attribute must
/// come before the first child. One element per line, two spaces per
/// indent level, and no text content.
#[must_use = "an opened tag must be closed"]
pub(crate) struct Tag<'a> {
    out: &'a mut String,
    name: &'static str,
    indent: usize,
    /// Whether the start tag has been ended with `>` for content.
    has_content: bool,
}

impl<'a> Tag<'a> {
    /// Starts element `name` at `indent` levels.
    pub(crate) fn open(out: &'a mut String, indent: usize, name: &'static str) -> Self {
        push_indent(indent, out);
        out.push('<');
        out.push_str(name);
        Tag { out, name, indent, has_content: false }
    }

    /// Appends attribute `key` with `value` escaped.
    pub(crate) fn attr(self, key: &str, value: &str) -> Self {
        self.attr_with(key, |out| escape(value, out))
    }

    /// Appends attribute `key` with `value` as `Display` writes it,
    /// unescaped: for numbers, ids and other values that cannot hold a
    /// character XML escapes.
    pub(crate) fn attr_display(self, key: &str, value: impl fmt::Display) -> Self {
        self.attr_with(key, |out| {
            let start = out.len();
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{value}");
            debug_assert!(!out.as_bytes()[start..].iter().any(|&b| needs_escape(b)));
        })
    }

    fn attr_with(self, key: &str, value: impl FnOnce(&mut String)) -> Self {
        debug_assert!(!self.has_content, "attribute `{key}` after the content of <{}>", self.name);
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push_str("=\"");
        value(self.out);
        self.out.push('"');
        self
    }

    /// Writes child element `name` one level deeper, as `build` fills
    /// in its attributes and children, and closes it.
    pub(crate) fn child(
        self,
        name: &'static str,
        build: impl for<'b> FnOnce(Tag<'b>) -> Tag<'b>,
    ) -> Self {
        self.content(|out, indent| build(Tag::open(out, indent, name)).close())
    }

    /// Lets `write` append complete child elements, each at the indent
    /// it is given (one level deeper) and ending in a newline. If it
    /// appends nothing, the element still self-closes.
    pub(crate) fn content(mut self, write: impl FnOnce(&mut String, usize)) -> Self {
        let start_tag_end = self.out.len();
        if !self.has_content {
            self.out.push_str(">\n");
        }
        let before = self.out.len();
        write(self.out, self.indent + 1);
        if self.out.len() > before {
            self.has_content = true;
        } else {
            self.out.truncate(start_tag_end);
        }
        self
    }

    /// Ends the element.
    pub(crate) fn close(self) {
        if self.has_content {
            push_indent(self.indent, self.out);
            self.out.push_str("</");
            self.out.push_str(self.name);
            self.out.push_str(">\n");
        } else {
            self.out.push_str("/>\n");
        }
    }
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
                    let Some(number) = other.strip_prefix('#') else {
                        return Err(XmlError {
                            message: format!("unknown entity `&{other};`"),
                            offset: at + i,
                        });
                    };
                    let (digits, radix) = match number.strip_prefix('x') {
                        Some(hex) => (hex, 16),
                        None => (number, 10),
                    };
                    // `from_str_radix` refuses an empty run but takes a
                    // sign, so the digits are checked too.
                    u32::from_str_radix(digits, radix)
                        .ok()
                        .filter(|_| digits.chars().all(|c| c.is_digit(radix)))
                        .and_then(char::from_u32)
                        .ok_or(XmlError {
                            message: format!("bad char reference `&{other};`"),
                            offset: at + i,
                        })?
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
pub(crate) mod tests {
    use super::*;

    /// Serializes a node tree to a document string with an XML
    /// declaration: the tree writer `Tag` replaced, kept as the byte
    /// oracle the codec's tests compare the streaming export with.
    pub(crate) fn write_xml(root: &XmlNode) -> String {
        let mut out = String::from(DECLARATION);
        write_node(root, 0, &mut out);
        out
    }

    /// Escapes character by character, with no whole-value fast path.
    fn escape_each(s: &str, out: &mut String) {
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

    fn write_node(node: &XmlNode, indent: usize, out: &mut String) {
        push_indent(indent, out);
        out.push('<');
        out.push_str(&node.name);
        for (k, v) in &node.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_each(v, out);
            out.push('"');
        }
        if node.children.is_empty() && node.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        escape_each(&node.text, out);
        if !node.children.is_empty() {
            out.push('\n');
            for c in &node.children {
                write_node(c, indent + 1, out);
            }
            push_indent(indent, out);
        }
        out.push_str("</");
        out.push_str(&node.name);
        out.push_str(">\n");
    }

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
    fn malformed_char_references_are_errors() {
        // A character reference is a non-empty run of ASCII digits that
        // names a char; none of these decodes to U+0000.
        for bad in ["&#xZZ;", "&#;", "&#x;", "&#12ab;", "&#x+41;", "&#+65;", "&#xD800;"] {
            let e = parse_xml(&format!("<a>{bad}</a>")).unwrap_err();
            assert_eq!(e.message, format!("bad char reference `{bad}`"));
            assert_eq!(e.offset, 3, "{bad}");
        }
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
