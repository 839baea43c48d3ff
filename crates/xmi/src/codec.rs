//! The XMI codec: `comet-model` ⇄ XMI-1.2-flavoured XML.

use crate::xml::{Event, Reader, Tag, XmlError, DECLARATION};
use comet_model::{
    AggregationKind, AssociationData, AssociationEnd, AttributeData, ClassData, ConstraintData,
    DataTypeData, DependencyData, Direction, Element, ElementCore, ElementId, ElementKind,
    EnumerationData, GeneralizationData, InterfaceData, Model, Multiplicity, OperationData,
    PackageData, ParameterData, Primitive, TagValue, TypeRef, Visibility,
};
use std::fmt;

/// XMI import failure.
#[derive(Debug, Clone, PartialEq)]
pub enum XmiError {
    /// The document is not well-formed XML.
    Xml(XmlError),
    /// A structurally required node or attribute is missing.
    Missing(String),
    /// An attribute value could not be decoded.
    Bad(String),
    /// The decoded model failed well-formedness validation.
    Invalid(String),
}

impl fmt::Display for XmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmiError::Xml(e) => write!(f, "xml: {e}"),
            XmiError::Missing(w) => write!(f, "missing {w}"),
            XmiError::Bad(w) => write!(f, "malformed {w}"),
            XmiError::Invalid(w) => write!(f, "invalid model: {w}"),
        }
    }
}

impl std::error::Error for XmiError {}

impl From<XmlError> for XmiError {
    fn from(e: XmlError) -> Self {
        XmiError::Xml(e)
    }
}

/// Each visibility, parameter direction and aggregation kind beside the
/// name XMI gives it.
const VISIBILITIES: [(Visibility, &str); 4] = [
    (Visibility::Public, "public"),
    (Visibility::Protected, "protected"),
    (Visibility::Package, "package"),
    (Visibility::Private, "private"),
];
const DIRECTIONS: [(Direction, &str); 4] = [
    (Direction::In, "in"),
    (Direction::Out, "out"),
    (Direction::InOut, "inout"),
    (Direction::Return, "return"),
];
const AGGREGATIONS: [(AggregationKind, &str); 3] = [
    (AggregationKind::None, "none"),
    (AggregationKind::Shared, "shared"),
    (AggregationKind::Composite, "composite"),
];

fn name_in<T: PartialEq>(names: &[(T, &'static str)], value: T) -> &'static str {
    names.iter().find(|(v, _)| *v == value).map(|&(_, name)| name).expect("every variant is named")
}

/// The value `names` names `name`; `what` the value is, for the error.
fn value_in<T: Copy>(names: &[(T, &str)], name: &str, what: &str) -> Result<T, XmiError> {
    let value = names.iter().find(|(_, n)| *n == name).map(|&(value, _)| value);
    value.ok_or_else(|| XmiError::Bad(format!("{what} `{name}`")))
}

fn parse_type(s: &str) -> Result<TypeRef, XmiError> {
    if let Some(raw) = s.strip_prefix('#') {
        let id: u64 = raw.parse().map_err(|_| XmiError::Bad(format!("type ref `{s}`")))?;
        Ok(TypeRef::Element(ElementId::from_raw(id)))
    } else {
        Primitive::parse(s)
            .map(TypeRef::Primitive)
            .ok_or_else(|| XmiError::Bad(format!("type `{s}`")))
    }
}

fn parse_mult(s: &str) -> Result<Multiplicity, XmiError> {
    let bad = || XmiError::Bad(format!("multiplicity `{s}`"));
    let (lower, upper) = s.split_once("..").ok_or_else(bad)?;
    let upper = if upper == "*" { None } else { Some(upper.parse().map_err(|_| bad())?) };
    Ok(Multiplicity { lower: lower.parse().map_err(|_| bad())?, upper })
}

fn parse_id(s: &str) -> Result<ElementId, XmiError> {
    let raw = s.strip_prefix('#').ok_or_else(|| XmiError::Bad(format!("id `{s}`")))?;
    let n: u64 = raw.parse().map_err(|_| XmiError::Bad(format!("id `{s}`")))?;
    Ok(ElementId::from_raw(n))
}

fn bool_str(b: bool) -> &'static str {
    ["false", "true"][usize::from(b)]
}

/// An element id as XMI references it: `#` and the raw number.
struct Id(ElementId);

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0.raw())
    }
}

/// A type reference: a primitive's name, or the id of a model type.
struct TypeName(TypeRef);

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            TypeRef::Primitive(p) => f.write_str(p.name()),
            TypeRef::Element(id) => Id(id).fmt(f),
        }
    }
}

/// A multiplicity as `lower..upper`, or `lower..*` when unbounded;
/// unlike `Multiplicity`'s own `Display`, never abbreviated.
struct Mult(Multiplicity);

impl fmt::Display for Mult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.upper {
            Some(u) => write!(f, "{}..{u}", self.0.lower),
            None => write!(f, "{}..*", self.0.lower),
        }
    }
}

/// Writes a tagged value's `type` and `value` attributes, then `key`
/// when it has one, then a list's items as `UML:Value` children.
fn tag_value<'a>(tag: Tag<'a>, value: &TagValue, key: Option<&str>) -> Tag<'a> {
    let tag = match value {
        TagValue::Str(s) => tag.attr("type", "str").attr("value", s),
        TagValue::Int(i) => tag.attr("type", "int").attr_display("value", i),
        TagValue::Bool(b) => tag.attr("type", "bool").attr("value", bool_str(*b)),
        TagValue::Real(r) => tag.attr("type", "real").attr_display("value", format_args!("{r:?}")),
        TagValue::List(_) => tag.attr("type", "list"),
    };
    let mut tag = match key {
        Some(k) => tag.attr("key", k),
        None => tag,
    };
    if let TagValue::List(items) = value {
        for item in items {
            tag = tag.child("UML:Value", |t| tag_value(t, item, None));
        }
    }
    tag
}

fn end_attrs<'a>(tag: Tag<'a>, end: &AssociationEnd) -> Tag<'a> {
    tag.attr("role", &end.role)
        .attr_display("class", Id(end.class))
        .attr_display("multiplicity", Mult(end.multiplicity))
        .attr("navigable", bool_str(end.navigable))
        .attr("aggregation", name_in(&AGGREGATIONS, end.aggregation))
}

/// Writes `e` as one `UML:Element` at `indent` levels, straight into
/// `out`. The start tag carries the core attributes, then the kind's;
/// the children are the stereotypes, the tagged values, then the
/// kind's literals or association ends.
fn write_element(e: &Element, indent: usize, out: &mut String) {
    let core = e.core();
    let mut tag = Tag::open(out, indent, "UML:Element")
        .attr_display("xmi.id", Id(e.id()))
        .attr("kind", e.kind().kind_name())
        .attr("name", e.name())
        .attr("visibility", name_in(&VISIBILITIES, core.visibility));
    if let Some(o) = e.owner() {
        tag = tag.attr_display("owner", Id(o));
    }
    if !core.doc.is_empty() {
        tag = tag.attr("doc", &core.doc);
    }
    tag = match e.kind() {
        ElementKind::Package(_)
        | ElementKind::Interface(_)
        | ElementKind::DataType(_)
        | ElementKind::Enumeration(_)
        | ElementKind::Association(_) => tag,
        ElementKind::Class(c) => {
            tag.attr("isAbstract", bool_str(c.is_abstract)).attr("isActive", bool_str(c.is_active))
        }
        ElementKind::Attribute(a) => {
            let tag = tag
                .attr_display("type", TypeName(a.ty))
                .attr_display("multiplicity", Mult(a.multiplicity))
                .attr("isStatic", bool_str(a.is_static))
                .attr("isReadOnly", bool_str(a.is_read_only));
            match &a.default {
                Some(d) => tag.attr("default", d),
                None => tag,
            }
        }
        ElementKind::Operation(o) => tag
            .attr_display("returnType", TypeName(o.return_type))
            .attr("isStatic", bool_str(o.is_static))
            .attr("isAbstract", bool_str(o.is_abstract))
            .attr("isQuery", bool_str(o.is_query)),
        ElementKind::Parameter(p) => tag
            .attr_display("type", TypeName(p.ty))
            .attr("direction", name_in(&DIRECTIONS, p.direction)),
        ElementKind::Generalization(g) => {
            tag.attr_display("child", Id(g.child)).attr_display("parent", Id(g.parent))
        }
        ElementKind::Dependency(d) => {
            tag.attr_display("client", Id(d.client)).attr_display("supplier", Id(d.supplier))
        }
        ElementKind::Constraint(c) => {
            tag.attr_display("constrained", Id(c.constrained)).attr("body", &c.body)
        }
    };
    for s in &core.stereotypes {
        tag = tag.child("UML:Stereotype", |t| t.attr("name", s));
    }
    for (k, v) in &core.tags {
        tag = tag.child("UML:TaggedValue", |t| tag_value(t, v, Some(k)));
    }
    match e.kind() {
        ElementKind::Enumeration(en) => {
            for l in &en.literals {
                tag = tag.child("UML:Literal", |t| t.attr("name", l));
            }
        }
        ElementKind::Association(a) => {
            for end in &a.ends {
                tag = tag.child("UML:End", |t| end_attrs(t, end));
            }
        }
        _ => {}
    }
    tag.close();
}

/// Exports a model as an XMI document string.
///
/// The document lists every element in id order, each written from
/// that element alone, so it is the header, the per-element fragments
/// and the footer. The fragments come from the model's rendering cache
/// ([`Model::render_fragments`]): only elements touched since the last
/// export render again, each written straight into the cache's buffer.
pub fn export_model(model: &Model) -> String {
    let mut out = String::from(DECLARATION);
    Tag::open(&mut out, 0, "XMI")
        .attr("xmi.version", "1.2")
        .attr("xmlns:UML", "org.omg.xmi.namespace.UML")
        .child("XMI.header", |t| t.child("XMI.documentation", |t| t.attr("exporter", "comet-xmi")))
        .child("XMI.content", |t| {
            t.child("UML:Model", |t| {
                t.attr("name", model.name()).attr_display("root", Id(model.root())).content(
                    |out, indent| {
                        let element = |e: &Element, out: &mut String| write_element(e, indent, out);
                        model.render_fragments("comet-xmi", element, out);
                    },
                )
            })
        })
        .close();
    out
}

/// The value of the last start tag's attribute `key`, or `missing`.
fn required<'r>(r: &'r Reader<'_>, key: &str, missing: &str) -> Result<&'r str, XmiError> {
    r.attr(key).ok_or_else(|| XmiError::Missing(missing.to_owned()))
}

fn attr_bool(r: &Reader<'_>, key: &str) -> Result<bool, XmiError> {
    r.attr(key).unwrap_or("false").parse().map_err(|_| XmiError::Bad(format!("boolean `{key}`")))
}

fn parse_end(r: &Reader<'_>) -> Result<AssociationEnd, XmiError> {
    Ok(AssociationEnd {
        role: r.attr("role").unwrap_or_default().to_owned(),
        class: parse_id(required(r, "class", "end class")?)?,
        multiplicity: parse_mult(required(r, "multiplicity", "end multiplicity")?)?,
        navigable: r
            .attr("navigable")
            .unwrap_or("true")
            .parse()
            .map_err(|_| XmiError::Bad("navigable".into()))?,
        aggregation: value_in(
            &AGGREGATIONS,
            r.attr("aggregation").unwrap_or("none"),
            "aggregation",
        )?,
    })
}

/// `read` of each child named `name` of the element `r` is in, in
/// document order; the other children are skipped.
fn children<'a, T>(
    r: &mut Reader<'a>,
    name: &str,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T, XmiError>,
) -> Result<Vec<T>, XmiError> {
    let mut values = Vec::new();
    r.each_child(|r, child| {
        if child == name {
            values.push(read(r)?);
        }
        Ok::<_, XmiError>(())
    })?;
    Ok(values)
}

/// The tagged value whose start tag `r` has just read: a scalar from its
/// `type` and `value` attributes, a list from its `UML:Value` children.
fn read_tag_value(r: &mut Reader<'_>) -> Result<TagValue, XmiError> {
    let value = || required(r, "value", "tag value");
    let bad = |ty| XmiError::Bad(format!("{ty} tag"));
    match required(r, "type", "tag type")? {
        "str" => Ok(TagValue::Str(value()?.to_owned())),
        "int" => value()?.parse().map(TagValue::Int).map_err(|_| bad("int")),
        "bool" => value()?.parse().map(TagValue::Bool).map_err(|_| bad("bool")),
        "real" => value()?.parse().map(TagValue::Real).map_err(|_| bad("real")),
        "list" => children(r, "UML:Value", read_tag_value).map(TagValue::List),
        other => Err(XmiError::Bad(format!("tag type `{other}`"))),
    }
}

/// The kind `kind_name` names, with the data in the start tag `r` has
/// just read: an enumeration without its literals, and `None` for an
/// association, whose data is all in its `UML:End` children.
fn start_kind(r: &Reader<'_>, kind_name: &str) -> Result<Option<ElementKind>, XmiError> {
    let attr = |key: &str| {
        r.attr(key).ok_or_else(|| XmiError::Missing(format!("attribute `{key}` on {kind_name}")))
    };
    Ok(Some(match kind_name {
        "Package" => ElementKind::Package(PackageData::default()),
        "Interface" => ElementKind::Interface(InterfaceData::default()),
        "DataType" => ElementKind::DataType(DataTypeData::default()),
        "Class" => ElementKind::Class(ClassData {
            is_abstract: attr_bool(r, "isAbstract")?,
            is_active: attr_bool(r, "isActive")?,
        }),
        "Enumeration" => ElementKind::Enumeration(EnumerationData::default()),
        "Attribute" => ElementKind::Attribute(AttributeData {
            ty: parse_type(attr("type")?)?,
            multiplicity: parse_mult(attr("multiplicity")?)?,
            is_static: attr_bool(r, "isStatic")?,
            is_read_only: attr_bool(r, "isReadOnly")?,
            default: r.attr("default").map(str::to_owned),
        }),
        "Operation" => ElementKind::Operation(OperationData {
            return_type: parse_type(attr("returnType")?)?,
            is_static: attr_bool(r, "isStatic")?,
            is_abstract: attr_bool(r, "isAbstract")?,
            is_query: attr_bool(r, "isQuery")?,
        }),
        "Parameter" => ElementKind::Parameter(ParameterData {
            ty: parse_type(attr("type")?)?,
            direction: value_in(&DIRECTIONS, attr("direction")?, "direction")?,
        }),
        "Association" => return Ok(None),
        "Generalization" => ElementKind::Generalization(GeneralizationData {
            child: parse_id(attr("child")?)?,
            parent: parse_id(attr("parent")?)?,
        }),
        "Dependency" => ElementKind::Dependency(DependencyData {
            client: parse_id(attr("client")?)?,
            supplier: parse_id(attr("supplier")?)?,
        }),
        "Constraint" => ElementKind::Constraint(ConstraintData {
            constrained: parse_id(attr("constrained")?)?,
            body: attr("body")?.to_owned(),
        }),
        other => return Err(XmiError::Bad(format!("element kind `{other}`"))),
    }))
}

/// The `UML:Element` whose start tag `r` has just read. Its children are
/// read as they come, and their faults are reported in a fixed order,
/// whatever the document order: the stereotypes', then the tagged
/// values', then the kind's attributes', then the literals' or ends'.
fn read_element(r: &mut Reader<'_>) -> Result<Element, XmiError> {
    let id = parse_id(required(r, "xmi.id", "xmi.id")?)?;
    let kind_name = required(r, "kind", "kind")?;
    let owner = r.attr("owner").map(parse_id).transpose()?;
    let mut core = ElementCore::new(r.attr("name").unwrap_or_default(), owner);
    core.visibility =
        value_in(&VISIBILITIES, r.attr("visibility").unwrap_or("public"), "visibility")?;
    core.doc = r.attr("doc").unwrap_or_default().to_owned();
    let kind = start_kind(r, kind_name);
    let (mut stereotypes, mut tags, mut literals, mut ends) = (vec![], vec![], vec![], vec![]);
    let name = |r: &Reader<'_>, missing| required(r, "name", missing).map(str::to_owned);
    r.each_child(|r, child| {
        match child {
            "UML:Stereotype" => stereotypes.push(name(r, "stereotype name")),
            "UML:TaggedValue" => tags.push(
                required(r, "key", "tag key")
                    .map(str::to_owned)
                    .and_then(|key| Ok((key, read_tag_value(r)?))),
            ),
            "UML:Literal" => literals.push(name(r, "literal name")),
            "UML:End" => ends.push(parse_end(r)),
            _ => {}
        }
        Ok::<_, XmiError>(())
    })?;
    for stereotype in stereotypes {
        core.apply_stereotype(stereotype?);
    }
    core.tags.extend(tags.into_iter().collect::<Result<Vec<_>, _>>()?);
    let kind = match kind? {
        Some(ElementKind::Enumeration(_)) => ElementKind::Enumeration(EnumerationData {
            literals: literals.into_iter().collect::<Result<_, _>>()?,
        }),
        Some(kind) => kind,
        None => {
            let ends: Vec<_> = ends.into_iter().collect::<Result<_, _>>()?;
            let two = |_| XmiError::Bad("association needs exactly two ends".into());
            ElementKind::Association(AssociationData { ends: ends.try_into().map_err(two)? })
        }
    };
    Ok(Element::new(id, core, kind))
}

/// The first `UML:Model` of the root `XMI` element's first
/// `XMI.content`: the model's name, root and elements.
fn read_document(r: &mut Reader<'_>) -> Result<(String, ElementId, Vec<Element>), XmiError> {
    if r.next()? != Event::Start("XMI") {
        return Err(XmiError::Missing("XMI document element".into()));
    }
    let (mut content, mut model) = (false, None);
    r.each_child(|r, child| {
        if child != "XMI.content" || std::mem::replace(&mut content, true) {
            return Ok::<_, XmiError>(());
        }
        r.each_child(|r, child| {
            if child == "UML:Model" && model.is_none() {
                let name = required(r, "name", "model name")?.to_owned();
                let root = parse_id(required(r, "root", "model root")?)?;
                model = Some((name, root, children(r, "UML:Element", read_element)?));
            }
            Ok(())
        })
    })?;
    r.finish()?;
    model.ok_or_else(|| XmiError::Missing(if content { "UML:Model" } else { "XMI.content" }.into()))
}

/// Imports a model from an XMI document string, in one pass that builds
/// each element from its tags, then validates it in full.
///
/// # Errors
/// Fails on malformed XML, unknown structure, or a model that does not
/// validate. An XML error anywhere wins over a decode error before it.
pub fn import_model(source: &str) -> Result<Model, XmiError> {
    let mut reader = Reader::new(source);
    let (name, root, elements) = read_document(&mut reader)
        .map_err(|e| reader.finish().map_or_else(XmiError::Xml, |()| e))?;
    Model::from_parts(name, root, elements).map_err(|violations| {
        XmiError::Invalid(violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::tests::{parse_xml, write_xml, XmlNode};
    use comet_model::sample::{auction_pim, banking_pim, synthetic};
    use proptest::prelude::*;

    // The tree reader's decode, as `import_model` ran it before it read
    // the document in one pass: the differential oracle for the import.

    fn tree_tag_value(node: &XmlNode) -> Result<TagValue, XmiError> {
        let ty = node.get_attr("type").ok_or_else(|| XmiError::Missing("tag type".into()))?;
        let value = || node.get_attr("value").ok_or_else(|| XmiError::Missing("tag value".into()));
        match ty {
            "str" => Ok(TagValue::Str(value()?.to_owned())),
            "int" => {
                value()?.parse().map(TagValue::Int).map_err(|_| XmiError::Bad("int tag".into()))
            }
            "bool" => {
                value()?.parse().map(TagValue::Bool).map_err(|_| XmiError::Bad("bool tag".into()))
            }
            "real" => {
                value()?.parse().map(TagValue::Real).map_err(|_| XmiError::Bad("real tag".into()))
            }
            "list" => {
                let mut items = Vec::new();
                for c in node.find_children("UML:Value") {
                    items.push(tree_tag_value(c)?);
                }
                Ok(TagValue::List(items))
            }
            other => Err(XmiError::Bad(format!("tag type `{other}`"))),
        }
    }

    fn tree_end(node: &XmlNode) -> Result<AssociationEnd, XmiError> {
        Ok(AssociationEnd {
            role: node.get_attr("role").unwrap_or_default().to_owned(),
            class: parse_id(
                node.get_attr("class").ok_or_else(|| XmiError::Missing("end class".into()))?,
            )?,
            multiplicity: parse_mult(
                node.get_attr("multiplicity")
                    .ok_or_else(|| XmiError::Missing("end multiplicity".into()))?,
            )?,
            navigable: node
                .get_attr("navigable")
                .unwrap_or("true")
                .parse()
                .map_err(|_| XmiError::Bad("navigable".into()))?,
            aggregation: match node.get_attr("aggregation").unwrap_or("none") {
                "none" => AggregationKind::None,
                "shared" => AggregationKind::Shared,
                "composite" => AggregationKind::Composite,
                other => return Err(XmiError::Bad(format!("aggregation `{other}`"))),
            },
        })
    }

    fn tree_bool(node: &XmlNode, key: &str) -> Result<bool, XmiError> {
        node.get_attr(key)
            .unwrap_or("false")
            .parse()
            .map_err(|_| XmiError::Bad(format!("boolean `{key}`")))
    }

    fn tree_element(node: &XmlNode) -> Result<Element, XmiError> {
        let id =
            parse_id(node.get_attr("xmi.id").ok_or_else(|| XmiError::Missing("xmi.id".into()))?)?;
        let kind_name = node.get_attr("kind").ok_or_else(|| XmiError::Missing("kind".into()))?;
        let mut core = ElementCore::new(
            node.get_attr("name").unwrap_or_default(),
            node.get_attr("owner").map(parse_id).transpose()?,
        );
        core.visibility =
            value_in(&VISIBILITIES, node.get_attr("visibility").unwrap_or("public"), "visibility")?;
        core.doc = node.get_attr("doc").unwrap_or_default().to_owned();
        for s in node.find_children("UML:Stereotype") {
            core.apply_stereotype(
                s.get_attr("name").ok_or_else(|| XmiError::Missing("stereotype name".into()))?,
            );
        }
        for t in node.find_children("UML:TaggedValue") {
            let key = t.get_attr("key").ok_or_else(|| XmiError::Missing("tag key".into()))?;
            core.set_tag(key, tree_tag_value(t)?);
        }
        let attr = |key: &str| -> Result<&str, XmiError> {
            node.get_attr(key)
                .ok_or_else(|| XmiError::Missing(format!("attribute `{key}` on {kind_name}")))
        };
        let kind = match kind_name {
            "Package" => ElementKind::Package(PackageData::default()),
            "Interface" => ElementKind::Interface(InterfaceData::default()),
            "DataType" => ElementKind::DataType(DataTypeData::default()),
            "Class" => ElementKind::Class(ClassData {
                is_abstract: tree_bool(node, "isAbstract")?,
                is_active: tree_bool(node, "isActive")?,
            }),
            "Enumeration" => ElementKind::Enumeration(EnumerationData {
                literals: node
                    .find_children("UML:Literal")
                    .map(|l| {
                        l.get_attr("name")
                            .map(str::to_owned)
                            .ok_or_else(|| XmiError::Missing("literal name".into()))
                    })
                    .collect::<Result<_, _>>()?,
            }),
            "Attribute" => ElementKind::Attribute(AttributeData {
                ty: parse_type(attr("type")?)?,
                multiplicity: parse_mult(attr("multiplicity")?)?,
                is_static: tree_bool(node, "isStatic")?,
                is_read_only: tree_bool(node, "isReadOnly")?,
                default: node.get_attr("default").map(str::to_owned),
            }),
            "Operation" => ElementKind::Operation(OperationData {
                return_type: parse_type(attr("returnType")?)?,
                is_static: tree_bool(node, "isStatic")?,
                is_abstract: tree_bool(node, "isAbstract")?,
                is_query: tree_bool(node, "isQuery")?,
            }),
            "Parameter" => ElementKind::Parameter(ParameterData {
                ty: parse_type(attr("type")?)?,
                direction: match attr("direction")? {
                    "in" => Direction::In,
                    "out" => Direction::Out,
                    "inout" => Direction::InOut,
                    "return" => Direction::Return,
                    other => return Err(XmiError::Bad(format!("direction `{other}`"))),
                },
            }),
            "Association" => {
                let ends: Vec<AssociationEnd> =
                    node.find_children("UML:End").map(tree_end).collect::<Result<_, _>>()?;
                let [a, b]: [AssociationEnd; 2] = ends
                    .try_into()
                    .map_err(|_| XmiError::Bad("association needs exactly two ends".into()))?;
                ElementKind::Association(AssociationData { ends: [a, b] })
            }
            "Generalization" => ElementKind::Generalization(GeneralizationData {
                child: parse_id(attr("child")?)?,
                parent: parse_id(attr("parent")?)?,
            }),
            "Dependency" => ElementKind::Dependency(DependencyData {
                client: parse_id(attr("client")?)?,
                supplier: parse_id(attr("supplier")?)?,
            }),
            "Constraint" => ElementKind::Constraint(ConstraintData {
                constrained: parse_id(attr("constrained")?)?,
                body: attr("body")?.to_owned(),
            }),
            other => return Err(XmiError::Bad(format!("element kind `{other}`"))),
        };
        Ok(Element::new(id, core, kind))
    }

    fn tree_import(source: &str) -> Result<Model, XmiError> {
        let doc = parse_xml(source)?;
        if doc.name != "XMI" {
            return Err(XmiError::Missing("XMI document element".into()));
        }
        let content =
            doc.find_child("XMI.content").ok_or_else(|| XmiError::Missing("XMI.content".into()))?;
        let model_node =
            content.find_child("UML:Model").ok_or_else(|| XmiError::Missing("UML:Model".into()))?;
        let name =
            model_node.get_attr("name").ok_or_else(|| XmiError::Missing("model name".into()))?;
        let root = parse_id(
            model_node.get_attr("root").ok_or_else(|| XmiError::Missing("model root".into()))?,
        )?;
        let elements: Vec<Element> =
            model_node.find_children("UML:Element").map(tree_element).collect::<Result<_, _>>()?;
        Model::from_parts(name, root, elements).map_err(|violations| {
            XmiError::Invalid(
                violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; "),
            )
        })
    }

    // The tree writer's element code, as `export_model` ran it before it
    // wrote straight into the buffer: the byte oracle for the export.

    fn type_str(t: TypeRef) -> String {
        match t {
            TypeRef::Primitive(p) => p.name().to_owned(),
            TypeRef::Element(id) => format!("#{}", id.raw()),
        }
    }

    fn mult_str(m: Multiplicity) -> String {
        match m.upper {
            Some(u) => format!("{}..{}", m.lower, u),
            None => format!("{}..*", m.lower),
        }
    }

    fn id_str(id: ElementId) -> String {
        format!("#{}", id.raw())
    }

    fn tag_value_node(name: &str, value: &TagValue) -> XmlNode {
        let node = XmlNode::new(name);
        match value {
            TagValue::Str(s) => node.attr("type", "str").attr("value", s.clone()),
            TagValue::Int(i) => node.attr("type", "int").attr("value", i.to_string()),
            TagValue::Bool(b) => node.attr("type", "bool").attr("value", b.to_string()),
            TagValue::Real(r) => node.attr("type", "real").attr("value", format!("{r:?}")),
            TagValue::List(items) => {
                let mut n = node.attr("type", "list");
                for item in items {
                    n = n.child(tag_value_node("UML:Value", item));
                }
                n
            }
        }
    }

    fn end_node(end: &AssociationEnd) -> XmlNode {
        XmlNode::new("UML:End")
            .attr("role", end.role.clone())
            .attr("class", id_str(end.class))
            .attr("multiplicity", mult_str(end.multiplicity))
            .attr("navigable", end.navigable.to_string())
            .attr(
                "aggregation",
                match end.aggregation {
                    AggregationKind::None => "none",
                    AggregationKind::Shared => "shared",
                    AggregationKind::Composite => "composite",
                },
            )
    }

    fn element_node(e: &Element) -> XmlNode {
        let mut node = XmlNode::new("UML:Element")
            .attr("xmi.id", id_str(e.id()))
            .attr("kind", e.kind().kind_name())
            .attr("name", e.name().to_owned())
            .attr("visibility", name_in(&VISIBILITIES, e.core().visibility));
        if let Some(o) = e.owner() {
            node = node.attr("owner", id_str(o));
        }
        if !e.core().doc.is_empty() {
            node = node.attr("doc", e.core().doc.clone());
        }
        for s in &e.core().stereotypes {
            node = node.child(XmlNode::new("UML:Stereotype").attr("name", s.clone()));
        }
        for (k, v) in &e.core().tags {
            node = node.child(tag_value_node("UML:TaggedValue", v).attr("key", k.clone()));
        }
        match e.kind() {
            ElementKind::Package(_) | ElementKind::Interface(_) | ElementKind::DataType(_) => {}
            ElementKind::Class(c) => {
                node = node
                    .attr("isAbstract", c.is_abstract.to_string())
                    .attr("isActive", c.is_active.to_string());
            }
            ElementKind::Enumeration(en) => {
                for l in &en.literals {
                    node = node.child(XmlNode::new("UML:Literal").attr("name", l.clone()));
                }
            }
            ElementKind::Attribute(a) => {
                node = node
                    .attr("type", type_str(a.ty))
                    .attr("multiplicity", mult_str(a.multiplicity))
                    .attr("isStatic", a.is_static.to_string())
                    .attr("isReadOnly", a.is_read_only.to_string());
                if let Some(d) = &a.default {
                    node = node.attr("default", d.clone());
                }
            }
            ElementKind::Operation(o) => {
                node = node
                    .attr("returnType", type_str(o.return_type))
                    .attr("isStatic", o.is_static.to_string())
                    .attr("isAbstract", o.is_abstract.to_string())
                    .attr("isQuery", o.is_query.to_string());
            }
            ElementKind::Parameter(p) => {
                node = node.attr("type", type_str(p.ty)).attr(
                    "direction",
                    match p.direction {
                        Direction::In => "in",
                        Direction::Out => "out",
                        Direction::InOut => "inout",
                        Direction::Return => "return",
                    },
                );
            }
            ElementKind::Association(a) => {
                node = node.child(end_node(&a.ends[0])).child(end_node(&a.ends[1]));
            }
            ElementKind::Generalization(g) => {
                node = node.attr("child", id_str(g.child)).attr("parent", id_str(g.parent));
            }
            ElementKind::Dependency(d) => {
                node = node.attr("client", id_str(d.client)).attr("supplier", id_str(d.supplier));
            }
            ElementKind::Constraint(c) => {
                node = node.attr("constrained", id_str(c.constrained)).attr("body", c.body.clone());
            }
        }
        node
    }

    /// The whole document as one node tree, written by `write_xml`: the
    /// bytes `export_model` must write.
    fn tree_export(model: &Model) -> String {
        let mut content = XmlNode::new("UML:Model")
            .attr("name", model.name().to_owned())
            .attr("root", id_str(model.root()));
        for e in model.iter() {
            content = content.child(element_node(e));
        }
        let doc = XmlNode::new("XMI")
            .attr("xmi.version", "1.2")
            .attr("xmlns:UML", "org.omg.xmi.namespace.UML")
            .child(
                XmlNode::new("XMI.header")
                    .child(XmlNode::new("XMI.documentation").attr("exporter", "comet-xmi")),
            )
            .child(XmlNode::new("XMI.content").child(content));
        write_xml(&doc)
    }

    #[test]
    fn export_writes_the_bytes_of_the_whole_tree() {
        let mut m = banking_pim();
        let bank = m.find_class("Bank").unwrap();
        m.element_mut(bank).unwrap().core_mut().doc = "quotes \" ' & <tags>".into();
        m.set_tag(bank, "list", TagValue::List(vec![TagValue::Int(1), TagValue::Real(0.5)]))
            .unwrap();
        for model in [m, auction_pim(), synthetic(30, 2, 2), Model::new("empty & <root>")] {
            assert_eq!(export_model(&model), tree_export(&model), "cold");
            assert_eq!(export_model(&model), tree_export(&model), "warm");
        }
        // After writes, a warm export still writes the tree's bytes.
        let mut m = synthetic(5, 1, 1);
        let _ = export_model(&m);
        let c1 = m.find_class("C1").unwrap();
        m.apply_stereotype(c1, "Remote").unwrap();
        m.remove_element(m.find_class("C3").unwrap()).unwrap();
        m.set_name("renamed");
        m.add_class(m.root(), "Late").unwrap();
        assert_eq!(export_model(&m), tree_export(&m));
    }

    /// Text for names, docs, defaults, bodies and tags: the five XML
    /// specials, non-ASCII, and the whitespace controls.
    const ALPHABET: &[char] =
        &['a', 'Z', '7', ' ', ';', '#', '&', '<', '>', '"', '\'', 'é', 'λ', '🦀', '\n', '\t', '\r'];

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..ALPHABET.len(), 0..7)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn id() -> impl Strategy<Value = ElementId> {
        prop_oneof![0u64..64, any::<u64>()].prop_map(ElementId::from_raw)
    }

    fn real() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            any::<u64>().prop_map(f64::from_bits),
            any::<i16>().prop_map(|i| f64::from(i) / 8.0),
        ]
    }

    fn arb_tag_value() -> BoxedStrategy<TagValue> {
        prop_oneof![
            text().prop_map(TagValue::Str),
            any::<i64>().prop_map(TagValue::Int),
            any::<bool>().prop_map(TagValue::Bool),
            real().prop_map(TagValue::Real),
        ]
        .prop_recursive(3, 16, 3, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(TagValue::List)
        })
    }

    fn type_ref() -> impl Strategy<Value = TypeRef> {
        let primitives = [Primitive::Int, Primitive::Real, Primitive::Bool, Primitive::Str];
        prop_oneof![
            (0..5usize).prop_map(move |i| match primitives.get(i) {
                Some(&p) => TypeRef::Primitive(p),
                None => TypeRef::Primitive(Primitive::Void),
            }),
            id().prop_map(TypeRef::Element),
        ]
    }

    fn multiplicity() -> impl Strategy<Value = Multiplicity> {
        (0u32..3, any::<u32>(), any::<bool>()).prop_map(|(lower, upper, bounded)| Multiplicity {
            lower,
            upper: bounded.then_some(upper),
        })
    }

    fn end() -> impl Strategy<Value = AssociationEnd> {
        (text(), id(), multiplicity(), any::<bool>(), 0..3usize).prop_map(
            |(role, class, multiplicity, navigable, aggregation)| AssociationEnd {
                role,
                class,
                multiplicity,
                navigable,
                aggregation: [
                    AggregationKind::None,
                    AggregationKind::Shared,
                    AggregationKind::Composite,
                ][aggregation],
            },
        )
    }

    /// Every element kind, with every field drawn.
    fn element_kind() -> impl Strategy<Value = ElementKind> {
        let b = any::<bool>;
        prop_oneof![
            Just(ElementKind::Package(PackageData::default())),
            Just(ElementKind::Interface(InterfaceData::default())),
            Just(ElementKind::DataType(DataTypeData::default())),
            (b(), b()).prop_map(|(is_abstract, is_active)| {
                ElementKind::Class(ClassData { is_abstract, is_active })
            }),
            prop::collection::vec(text(), 0..4)
                .prop_map(|literals| ElementKind::Enumeration(EnumerationData { literals })),
            (type_ref(), multiplicity(), b(), b(), (b(), text())).prop_map(
                |(ty, multiplicity, is_static, is_read_only, (has_default, default))| {
                    ElementKind::Attribute(AttributeData {
                        ty,
                        multiplicity,
                        is_static,
                        is_read_only,
                        default: has_default.then_some(default),
                    })
                }
            ),
            (type_ref(), b(), b(), b()).prop_map(
                |(return_type, is_static, is_abstract, is_query)| {
                    ElementKind::Operation(OperationData {
                        return_type,
                        is_static,
                        is_abstract,
                        is_query,
                    })
                }
            ),
            (type_ref(), 0..4usize).prop_map(|(ty, d)| {
                let direction =
                    [Direction::In, Direction::Out, Direction::InOut, Direction::Return][d];
                ElementKind::Parameter(ParameterData { ty, direction })
            }),
            (end(), end())
                .prop_map(|(a, b)| ElementKind::Association(AssociationData { ends: [a, b] })),
            (id(), id()).prop_map(|(child, parent)| {
                ElementKind::Generalization(GeneralizationData { child, parent })
            }),
            (id(), id()).prop_map(|(client, supplier)| {
                ElementKind::Dependency(DependencyData { client, supplier })
            }),
            (id(), text()).prop_map(|(constrained, body)| {
                ElementKind::Constraint(ConstraintData { constrained, body })
            }),
        ]
    }

    /// The kind-independent part of an element.
    #[derive(Debug, Clone)]
    struct Core {
        name: String,
        doc: String,
        visibility: usize,
        stereotypes: Vec<String>,
        tags: Vec<(String, TagValue)>,
    }

    fn core() -> impl Strategy<Value = Core> {
        (
            text(),
            text(),
            0..4usize,
            prop::collection::vec(text(), 0..3),
            prop::collection::vec((text(), arb_tag_value()), 0..4),
        )
            .prop_map(|(name, doc, visibility, stereotypes, tags)| Core {
                name,
                doc,
                visibility,
                stereotypes,
                tags,
            })
    }

    #[derive(Debug, Clone)]
    enum Write {
        /// Adds a class under the root, which `Reshape` may turn into
        /// any kind.
        Add,
        /// Replaces a non-root element's kind and its data.
        Reshape(u8, ElementKind),
        /// Replaces an element's name, doc, visibility, stereotypes and
        /// tags.
        Core(u8, Core),
        /// Removes a non-root element and what it owns.
        Remove(u8),
        SetName(String),
    }

    fn write() -> impl Strategy<Value = Write> {
        prop_oneof![
            Just(Write::Add),
            (any::<u8>(), element_kind()).prop_map(|(i, k)| Write::Reshape(i, k)),
            (any::<u8>(), core()).prop_map(|(i, c)| Write::Core(i, c)),
            any::<u8>().prop_map(Write::Remove),
            text().prop_map(Write::SetName),
        ]
    }

    /// The `i`th element, the root included or not, if there is one.
    fn pick(m: &Model, i: u8, with_root: bool) -> Option<ElementId> {
        let ids: Vec<ElementId> =
            m.iter().map(Element::id).filter(|&id| with_root || id != m.root()).collect();
        (!ids.is_empty()).then(|| ids[i as usize % ids.len()])
    }

    /// Runs `w` on `m`; a write the model refuses changes nothing.
    fn apply(m: &mut Model, w: &Write) {
        match w {
            Write::Add => {
                let _ = m.add_class(m.root(), &format!("added{}", m.len()));
            }
            Write::Reshape(i, kind) => {
                if let Some(id) = pick(m, *i, false) {
                    *m.element_mut(id).unwrap().kind_mut() = kind.clone();
                }
            }
            Write::Core(i, c) => {
                if let Some(id) = pick(m, *i, true) {
                    let core = m.element_mut(id).unwrap().core_mut();
                    core.name = c.name.clone();
                    core.doc = c.doc.clone();
                    core.visibility = [
                        Visibility::Public,
                        Visibility::Protected,
                        Visibility::Package,
                        Visibility::Private,
                    ][c.visibility];
                    core.stereotypes = c.stereotypes.clone();
                    core.tags = c.tags.iter().cloned().collect();
                }
            }
            Write::Remove(i) => {
                if let Some(id) = pick(m, *i, false) {
                    let _ = m.remove_element(id);
                }
            }
            Write::SetName(name) => m.set_name(name.clone()),
        }
    }

    /// The banking PIM with one class added per entry of `kinds`, each
    /// turned into that kind.
    fn with_kinds(kinds: Vec<ElementKind>) -> Model {
        let mut m = banking_pim();
        for kind in kinds {
            apply(&mut m, &Write::Add);
            let added = m.iter().last().unwrap().id();
            *m.element_mut(added).unwrap().kind_mut() = kind;
        }
        m
    }

    /// Sorts and dedupes each element's stereotypes, as
    /// `ElementCore::apply_stereotype` keeps them and so the import
    /// reads them back; `Write::Core` sets them as drawn.
    fn sort_stereotypes(m: &mut Model) {
        for id in m.iter().map(Element::id).collect::<Vec<_>>() {
            let stereotypes = &mut m.element_mut(id).unwrap().core_mut().stereotypes;
            stereotypes.sort();
            stereotypes.dedup();
        }
    }

    /// An import's result in a form that compares a model by its cold
    /// export, where a NaN tag equals itself.
    fn outcome(imported: &Result<Model, XmiError>) -> Result<String, &XmiError> {
        imported.as_ref().map(export_model)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Models holding every element kind, with text the writer must
        /// escape and every tagged-value shape, export the tree
        /// oracle's bytes: cold, and warm from the fragment cache after
        /// each random write.
        #[test]
        fn streaming_export_writes_the_tree_oracle_bytes(
            kinds in prop::collection::vec(element_kind(), 0..14),
            writes in prop::collection::vec(write(), 1..12),
        ) {
            let mut m = with_kinds(kinds);
            prop_assert_eq!(export_model(&m), tree_export(&m), "cold");
            for w in &writes {
                apply(&mut m, w);
                let want = tree_export(&m);
                prop_assert_eq!(export_model(&m.clone()), want, "cold after {:?}", w);
                prop_assert_eq!(export_model(&m), want, "warm after {:?}", w);
            }
        }

        /// The same models import back to themselves, and the streaming
        /// import returns what the tree oracle's returns; a model that
        /// does not validate is refused as invalid by both.
        #[test]
        fn streaming_import_round_trips_and_equals_the_tree_import(
            kinds in prop::collection::vec(element_kind(), 0..14),
            writes in prop::collection::vec(write(), 1..12),
        ) {
            let mut m = with_kinds(kinds);
            for w in &writes {
                apply(&mut m, w);
                sort_stereotypes(&mut m);
                let xmi = export_model(&m);
                let imported = import_model(&xmi);
                prop_assert_eq!(outcome(&imported), outcome(&tree_import(&xmi)), "after {:?}", w);
                match imported {
                    Ok(back) => {
                        prop_assert_eq!(export_model(&back), xmi);
                        // A NaN tag makes a model unequal to itself, and
                        // XMI carries no id counter: the import restarts
                        // it after the largest id.
                        if m.clone() == m {
                            prop_assert_eq!((back.name(), back.root()), (m.name(), m.root()));
                            prop_assert!(back.iter().eq(m.iter()));
                        }
                    }
                    Err(e) => {
                        prop_assert!(matches!(e, XmiError::Invalid(_)), "{e}");
                        prop_assert!(m.clone().validate().is_err());
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// An export cut short or with bytes flipped reads the same
        /// through the streaming import and the tree oracle: the same
        /// model, or the same error at the same place.
        #[test]
        fn cut_and_flipped_exports_read_alike(
            kinds in prop::collection::vec(element_kind(), 0..6),
            flips in prop::collection::vec((any::<u32>(), 1..=255u8), 0..3),
            cut in (any::<bool>(), any::<u32>()),
        ) {
            let mut bytes = export_model(&with_kinds(kinds)).into_bytes();
            for (at, mask) in flips {
                let at = at as usize % bytes.len();
                bytes[at] ^= mask;
            }
            if let (true, cut) = cut {
                bytes.truncate(cut as usize % (bytes.len() + 1));
            }
            let doc = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(outcome(&import_model(&doc)), outcome(&tree_import(&doc)));
        }
    }

    #[test]
    fn banking_round_trip() {
        let m = banking_pim();
        let xml = export_model(&m);
        let back = import_model(&xml).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn auction_round_trip() {
        let m = auction_pim();
        assert_eq!(import_model(&export_model(&m)).unwrap(), m);
    }

    #[test]
    fn synthetic_round_trip() {
        let m = synthetic(30, 2, 2);
        assert_eq!(import_model(&export_model(&m)).unwrap(), m);
    }

    #[test]
    fn stereotypes_tags_and_docs_survive() {
        let mut m = banking_pim();
        let bank = m.find_class("Bank").unwrap();
        m.apply_stereotype(bank, "Remote").unwrap();
        m.set_tag(bank, "comet.dist.node", "server").unwrap();
        m.set_tag(bank, "count", 42i64).unwrap();
        m.set_tag(bank, "flag", true).unwrap();
        m.set_tag(bank, "list", TagValue::List(vec![TagValue::Int(1), TagValue::Str("x".into())]))
            .unwrap();
        m.element_mut(bank).unwrap().core_mut().doc = "the bank <&> 'entity'".into();
        m.mark_concern(bank, "distribution").unwrap();
        let back = import_model(&export_model(&m)).unwrap();
        assert_eq!(m, back);
        let bank2 = back.find_class("Bank").unwrap();
        assert_eq!(back.concern_of(bank2), Some("distribution"));
    }

    #[test]
    fn enumeration_and_interface_round_trip() {
        let mut m = Model::new("m");
        m.add_enumeration(m.root(), "Color", vec!["RED".into(), "BLUE".into()]).unwrap();
        m.add_interface(m.root(), "Printable").unwrap();
        m.add_data_type(m.root(), "Money").unwrap();
        assert_eq!(import_model(&export_model(&m)).unwrap(), m);
    }

    #[test]
    fn deep_models_round_trip_under_the_xml_nesting_bound() {
        // Ownership depth does not nest the document (elements are
        // listed flat); a nested tagged-value list does, one level each.
        let mut m = Model::new("deep");
        let mut owner = m.root();
        for i in 0..300 {
            owner = m.add_package(owner, &format!("p{i}")).unwrap();
        }
        let class = m.add_class(owner, "Leaf").unwrap();
        m.add_operation(class, "run").unwrap();
        let mut list = TagValue::Int(1);
        for _ in 0..200 {
            list = TagValue::List(vec![list, TagValue::Str("x".into())]);
        }
        m.set_tag(class, "nested", list).unwrap();
        assert_eq!(import_model(&export_model(&m)).unwrap(), m);
        // A hostile document far past the bound is a typed error.
        let deep = format!("{}{}", "<a>".repeat(100_000), "</a>".repeat(100_000));
        assert!(matches!(import_model(&deep), Err(XmiError::Xml(_))));
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(matches!(import_model("<html/>"), Err(XmiError::Missing(_))));
        assert!(matches!(import_model("not xml"), Err(XmiError::Xml(_))));
        // Dangling owner reference fails validation.
        let bad = r##"<XMI xmi.version="1.2"><XMI.content>
            <UML:Model name="m" root="#0">
              <UML:Element xmi.id="#0" kind="Package" name="m"/>
              <UML:Element xmi.id="#1" kind="Class" name="A" owner="#99"/>
            </UML:Model></XMI.content></XMI>"##;
        assert!(matches!(import_model(bad), Err(XmiError::Invalid(_))));
        // Unknown kind.
        let bad2 = r##"<XMI xmi.version="1.2"><XMI.content>
            <UML:Model name="m" root="#0">
              <UML:Element xmi.id="#0" kind="Widget" name="m"/>
            </UML:Model></XMI.content></XMI>"##;
        assert!(matches!(import_model(bad2), Err(XmiError::Bad(_))));
    }

    #[test]
    fn export_contains_xmi_structure() {
        let xml = export_model(&banking_pim());
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("xmi.version=\"1.2\""));
        assert!(xml.contains("XMI.header"));
        assert!(xml.contains("UML:Model name=\"bank\""));
        assert!(xml.contains("kind=\"Class\" name=\"Account\""));
    }
}
