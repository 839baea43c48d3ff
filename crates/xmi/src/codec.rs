//! The XMI codec: `comet-model` ⇄ XMI-1.2-flavoured XML.

use crate::xml::{parse_xml, write_close, write_node, write_open, XmlError, XmlNode, DECLARATION};
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

fn vis_str(v: Visibility) -> &'static str {
    match v {
        Visibility::Public => "public",
        Visibility::Protected => "protected",
        Visibility::Package => "package",
        Visibility::Private => "private",
    }
}

fn parse_vis(s: &str) -> Result<Visibility, XmiError> {
    match s {
        "public" => Ok(Visibility::Public),
        "protected" => Ok(Visibility::Protected),
        "package" => Ok(Visibility::Package),
        "private" => Ok(Visibility::Private),
        other => Err(XmiError::Bad(format!("visibility `{other}`"))),
    }
}

fn type_str(t: TypeRef) -> String {
    match t {
        TypeRef::Primitive(p) => p.name().to_owned(),
        TypeRef::Element(id) => format!("#{}", id.raw()),
    }
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

fn mult_str(m: Multiplicity) -> String {
    match m.upper {
        Some(u) => format!("{}..{}", m.lower, u),
        None => format!("{}..*", m.lower),
    }
}

fn parse_mult(s: &str) -> Result<Multiplicity, XmiError> {
    let (lo, hi) =
        s.split_once("..").ok_or_else(|| XmiError::Bad(format!("multiplicity `{s}`")))?;
    let lower: u32 = lo.parse().map_err(|_| XmiError::Bad(format!("multiplicity `{s}`")))?;
    let upper = if hi == "*" {
        None
    } else {
        Some(hi.parse().map_err(|_| XmiError::Bad(format!("multiplicity `{s}`")))?)
    };
    Ok(Multiplicity { lower, upper })
}

fn id_str(id: ElementId) -> String {
    format!("#{}", id.raw())
}

fn parse_id(s: &str) -> Result<ElementId, XmiError> {
    let raw = s.strip_prefix('#').ok_or_else(|| XmiError::Bad(format!("id `{s}`")))?;
    let n: u64 = raw.parse().map_err(|_| XmiError::Bad(format!("id `{s}`")))?;
    Ok(ElementId::from_raw(n))
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

fn parse_tag_value(node: &XmlNode) -> Result<TagValue, XmiError> {
    let ty = node.get_attr("type").ok_or_else(|| XmiError::Missing("tag type".into()))?;
    let value = || node.get_attr("value").ok_or_else(|| XmiError::Missing("tag value".into()));
    match ty {
        "str" => Ok(TagValue::Str(value()?.to_owned())),
        "int" => value()?.parse().map(TagValue::Int).map_err(|_| XmiError::Bad("int tag".into())),
        "bool" => {
            value()?.parse().map(TagValue::Bool).map_err(|_| XmiError::Bad("bool tag".into()))
        }
        "real" => {
            value()?.parse().map(TagValue::Real).map_err(|_| XmiError::Bad("real tag".into()))
        }
        "list" => {
            let mut items = Vec::new();
            for c in node.find_children("UML:Value") {
                items.push(parse_tag_value(c)?);
            }
            Ok(TagValue::List(items))
        }
        other => Err(XmiError::Bad(format!("tag type `{other}`"))),
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

fn parse_end(node: &XmlNode) -> Result<AssociationEnd, XmiError> {
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

fn element_node(e: &Element) -> XmlNode {
    let mut node = XmlNode::new("UML:Element")
        .attr("xmi.id", id_str(e.id()))
        .attr("kind", e.kind().kind_name())
        .attr("name", e.name().to_owned())
        .attr("visibility", vis_str(e.core().visibility));
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

/// Exports a model as an XMI document string.
///
/// The document lists every element in id order, each written from
/// that element alone, so it is the header, the per-element fragments
/// and the footer. The fragments come from the model's rendering cache
/// ([`Model::render_fragments`]): only elements touched since the last
/// export render again. The bytes are those of writing the whole
/// document tree with [`write_xml`](crate::write_xml).
pub fn export_model(model: &Model) -> String {
    let xmi = XmlNode::new("XMI")
        .attr("xmi.version", "1.2")
        .attr("xmlns:UML", "org.omg.xmi.namespace.UML");
    let header = XmlNode::new("XMI.header")
        .child(XmlNode::new("XMI.documentation").attr("exporter", "comet-xmi"));
    let content = XmlNode::new("XMI.content");
    let uml_model = XmlNode::new("UML:Model")
        .attr("name", model.name().to_owned())
        .attr("root", id_str(model.root()));
    let mut out = String::from(DECLARATION);
    write_open(&xmi, 0, &mut out);
    write_node(&header, 1, &mut out);
    write_open(&content, 1, &mut out);
    // The root package is always an element, so `UML:Model` always has
    // children and opens rather than self-closes.
    write_open(&uml_model, 2, &mut out);
    model.render_fragments("comet-xmi", |e, out| write_node(&element_node(e), 3, out), &mut out);
    write_close(&uml_model, 2, &mut out);
    write_close(&content, 1, &mut out);
    write_close(&xmi, 0, &mut out);
    out
}

fn attr_bool(node: &XmlNode, key: &str) -> Result<bool, XmiError> {
    node.get_attr(key)
        .unwrap_or("false")
        .parse()
        .map_err(|_| XmiError::Bad(format!("boolean `{key}`")))
}

fn parse_element(node: &XmlNode) -> Result<Element, XmiError> {
    let id = parse_id(node.get_attr("xmi.id").ok_or_else(|| XmiError::Missing("xmi.id".into()))?)?;
    let kind_name = node.get_attr("kind").ok_or_else(|| XmiError::Missing("kind".into()))?;
    let mut core = ElementCore::new(
        node.get_attr("name").unwrap_or_default(),
        node.get_attr("owner").map(parse_id).transpose()?,
    );
    core.visibility = parse_vis(node.get_attr("visibility").unwrap_or("public"))?;
    core.doc = node.get_attr("doc").unwrap_or_default().to_owned();
    for s in node.find_children("UML:Stereotype") {
        core.apply_stereotype(
            s.get_attr("name").ok_or_else(|| XmiError::Missing("stereotype name".into()))?,
        );
    }
    for t in node.find_children("UML:TaggedValue") {
        let key = t.get_attr("key").ok_or_else(|| XmiError::Missing("tag key".into()))?;
        core.set_tag(key, parse_tag_value(t)?);
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
            is_abstract: attr_bool(node, "isAbstract")?,
            is_active: attr_bool(node, "isActive")?,
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
            is_static: attr_bool(node, "isStatic")?,
            is_read_only: attr_bool(node, "isReadOnly")?,
            default: node.get_attr("default").map(str::to_owned),
        }),
        "Operation" => ElementKind::Operation(OperationData {
            return_type: parse_type(attr("returnType")?)?,
            is_static: attr_bool(node, "isStatic")?,
            is_abstract: attr_bool(node, "isAbstract")?,
            is_query: attr_bool(node, "isQuery")?,
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
                node.find_children("UML:End").map(parse_end).collect::<Result<_, _>>()?;
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

/// Imports a model from an XMI document string.
///
/// # Errors
/// Fails on malformed XML, unknown structure, or a model that does not
/// validate.
pub fn import_model(source: &str) -> Result<Model, XmiError> {
    let doc = parse_xml(source)?;
    if doc.name != "XMI" {
        return Err(XmiError::Missing("XMI document element".into()));
    }
    let content =
        doc.find_child("XMI.content").ok_or_else(|| XmiError::Missing("XMI.content".into()))?;
    let model_node =
        content.find_child("UML:Model").ok_or_else(|| XmiError::Missing("UML:Model".into()))?;
    let name = model_node.get_attr("name").ok_or_else(|| XmiError::Missing("model name".into()))?;
    let root = parse_id(
        model_node.get_attr("root").ok_or_else(|| XmiError::Missing("model root".into()))?,
    )?;
    let elements: Vec<Element> =
        model_node.find_children("UML:Element").map(parse_element).collect::<Result<_, _>>()?;
    Model::from_parts(name, root, elements).map_err(|violations| {
        XmiError::Invalid(violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_model::sample::{auction_pim, banking_pim, synthetic};

    /// The whole document as one node tree, written by `write_xml`: how
    /// `export_model` wrote it before it streamed cached fragments.
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
        crate::xml::write_xml(&doc)
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
