//! GoDIET-style XML serialization of deployment plans — the paper's
//! `write_xml` procedure ("a function to generate an XML file … that is
//! given as an input to deployment tool to deploy the hierarchical
//! platform", Table 1). GoDIET \[5\] is the deployment tool the authors
//! used on Grid'5000.
//!
//! The descriptor nests `<agent>` and `<server>` elements under a
//! `<hierarchy>` element, preceded by the `<resources>` the plan uses:
//!
//! ```xml
//! <?xml version="1.0"?>
//! <deployment>
//!   <resources>
//!     <node id="0" name="lyon-0" power="400"/>
//!     <node id="1" name="lyon-1" power="400"/>
//!   </resources>
//!   <hierarchy>
//!     <agent node="0">
//!       <server node="1"/>
//!     </agent>
//!   </hierarchy>
//! </deployment>
//! ```
//!
//! A minimal, dependency-free XML subset is parsed back: elements,
//! double-quoted attributes, self-closing tags, comments and the
//! declaration. This is sufficient for descriptors produced by
//! [`write_xml`] and for hand-written test fixtures.

use crate::plan::{DeploymentPlan, Role, Slot};
use adept_platform::{NodeId, Platform};
use std::collections::HashMap;
use std::fmt;

/// Errors raised by [`parse_xml`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Lexical or well-formedness error at a byte offset.
    Syntax {
        /// Byte offset in the input.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// A required attribute is missing on an element.
    MissingAttribute {
        /// Element name.
        element: String,
        /// Attribute name.
        attribute: String,
    },
    /// An attribute value failed to parse.
    BadAttribute {
        /// Element name.
        element: String,
        /// Attribute name.
        attribute: String,
        /// Raw value.
        value: String,
    },
    /// The document is well-formed XML but not a valid deployment
    /// descriptor.
    Structure(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Syntax { offset, message } => {
                write!(f, "XML syntax error at byte {offset}: {message}")
            }
            XmlError::MissingAttribute { element, attribute } => {
                write!(f, "<{element}> is missing attribute {attribute:?}")
            }
            XmlError::BadAttribute {
                element,
                attribute,
                value,
            } => write!(
                f,
                "<{element}> attribute {attribute}={value:?} could not be parsed"
            ),
            XmlError::Structure(msg) => write!(f, "invalid deployment descriptor: {msg}"),
        }
    }
}

impl std::error::Error for XmlError {}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&amp;", "&")
}

/// Serializes a plan to the GoDIET-style descriptor.
///
/// When a `platform` is supplied, node names and powers are embedded in the
/// `<resources>` section; otherwise only the ids are written.
pub fn write_xml(plan: &DeploymentPlan, platform: Option<&Platform>) -> String {
    let mut out = String::with_capacity(plan.len() * 48 + 256);
    out.push_str("<?xml version=\"1.0\"?>\n");
    out.push_str("<!-- GoDIET-style deployment descriptor generated by adept -->\n");
    out.push_str("<deployment>\n  <resources>\n");
    let mut nodes: Vec<NodeId> = plan.slots().map(|s| plan.node(s)).collect();
    nodes.sort_unstable();
    for id in &nodes {
        match platform.filter(|p| id.index() < p.node_count()) {
            Some(p) => out.push_str(&format!(
                "    <node id=\"{}\" name=\"{}\" power=\"{}\"/>\n",
                id.0,
                escape(p.name(*id)),
                p.power(*id).value()
            )),
            None => out.push_str(&format!("    <node id=\"{}\"/>\n", id.0)),
        }
    }
    out.push_str("  </resources>\n  <hierarchy>\n");
    write_element(plan, plan.root(), 2, &mut out);
    out.push_str("  </hierarchy>\n</deployment>\n");
    out
}

fn write_element(plan: &DeploymentPlan, slot: Slot, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    let node = plan.node(slot).0;
    match plan.role(slot) {
        Role::Server => {
            out.push_str(&format!("{pad}<server node=\"{node}\"/>\n"));
        }
        Role::Agent => {
            if plan.degree(slot) == 0 {
                out.push_str(&format!("{pad}<agent node=\"{node}\"/>\n"));
            } else {
                out.push_str(&format!("{pad}<agent node=\"{node}\">\n"));
                for &c in plan.children(slot) {
                    write_element(plan, c, depth + 1, out);
                }
                out.push_str(&format!("{pad}</agent>\n"));
            }
        }
    }
}

#[derive(Debug, PartialEq)]
enum Token {
    Open {
        name: String,
        attrs: HashMap<String, String>,
        self_closing: bool,
    },
    Close {
        name: String,
    },
}

struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError::Syntax {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, needle: &str) -> Result<(), XmlError> {
        let bytes = needle.as_bytes();
        while self.pos + bytes.len() <= self.input.len() {
            if &self.input[self.pos..self.pos + bytes.len()] == bytes {
                self.pos += bytes.len();
                return Ok(());
            }
            self.pos += 1;
        }
        self.err(format!("unterminated construct, expected {needle:?}"))
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self.pos < self.input.len()
            && (self.input[self.pos].is_ascii_alphanumeric()
                || matches!(self.input[self.pos], b'_' | b'-' | b':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// Next tag token, skipping whitespace text, comments and declarations.
    /// `Ok(None)` at end of input.
    fn next_token(&mut self) -> Result<Option<Token>, XmlError> {
        loop {
            self.skip_ws();
            if self.pos >= self.input.len() {
                return Ok(None);
            }
            if self.input[self.pos] != b'<' {
                return self.err("unexpected text content (only markup is allowed)");
            }
            if self.input[self.pos..].starts_with(b"<!--") {
                self.pos += 4;
                self.skip_until("-->")?;
                continue;
            }
            if self.input[self.pos..].starts_with(b"<?") {
                self.pos += 2;
                self.skip_until("?>")?;
                continue;
            }
            if self.input[self.pos..].starts_with(b"</") {
                self.pos += 2;
                let name = self.name()?;
                self.skip_ws();
                if self.pos >= self.input.len() || self.input[self.pos] != b'>' {
                    return self.err("expected '>' after closing tag name");
                }
                self.pos += 1;
                return Ok(Some(Token::Close { name }));
            }
            // Opening tag.
            self.pos += 1;
            let name = self.name()?;
            let mut attrs = HashMap::new();
            loop {
                self.skip_ws();
                if self.pos >= self.input.len() {
                    return self.err("unterminated tag");
                }
                match self.input[self.pos] {
                    b'>' => {
                        self.pos += 1;
                        return Ok(Some(Token::Open {
                            name,
                            attrs,
                            self_closing: false,
                        }));
                    }
                    b'/' => {
                        self.pos += 1;
                        if self.pos >= self.input.len() || self.input[self.pos] != b'>' {
                            return self.err("expected '>' after '/'");
                        }
                        self.pos += 1;
                        return Ok(Some(Token::Open {
                            name,
                            attrs,
                            self_closing: true,
                        }));
                    }
                    _ => {
                        let attr = self.name()?;
                        self.skip_ws();
                        if self.pos >= self.input.len() || self.input[self.pos] != b'=' {
                            return self.err(format!("expected '=' after attribute {attr:?}"));
                        }
                        self.pos += 1;
                        self.skip_ws();
                        if self.pos >= self.input.len() || self.input[self.pos] != b'"' {
                            return self.err("expected '\"' to open attribute value");
                        }
                        self.pos += 1;
                        let start = self.pos;
                        while self.pos < self.input.len() && self.input[self.pos] != b'"' {
                            self.pos += 1;
                        }
                        if self.pos >= self.input.len() {
                            return self.err("unterminated attribute value");
                        }
                        let value =
                            String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                        self.pos += 1;
                        attrs.insert(attr, unescape(&value));
                    }
                }
            }
        }
    }
}

fn node_attr(attrs: &HashMap<String, String>, element: &str) -> Result<NodeId, XmlError> {
    let raw = attrs
        .get("node")
        .ok_or_else(|| XmlError::MissingAttribute {
            element: element.into(),
            attribute: "node".into(),
        })?;
    raw.parse::<u32>()
        .map(NodeId)
        .map_err(|_| XmlError::BadAttribute {
            element: element.into(),
            attribute: "node".into(),
            value: raw.clone(),
        })
}

/// Parses a GoDIET-style descriptor back into a [`DeploymentPlan`].
///
/// The `<resources>` section is validated for well-formedness but its node
/// metadata is not required; the hierarchy alone defines the plan.
///
/// # Errors
/// [`XmlError`] on malformed XML or an invalid hierarchy structure.
pub fn parse_xml(input: &str) -> Result<DeploymentPlan, XmlError> {
    let mut lexer = Lexer::new(input);
    // <deployment>
    match lexer.next_token()? {
        Some(Token::Open {
            name, self_closing, ..
        }) if name == "deployment" && !self_closing => {}
        other => {
            return Err(XmlError::Structure(format!(
                "expected <deployment> root element, got {other:?}"
            )))
        }
    }
    let mut plan: Option<DeploymentPlan> = None;
    loop {
        match lexer.next_token()? {
            Some(Token::Open {
                name, self_closing, ..
            }) if name == "resources" => {
                if !self_closing {
                    consume_resources(&mut lexer)?;
                }
            }
            Some(Token::Open {
                name, self_closing, ..
            }) if name == "hierarchy" => {
                if self_closing {
                    return Err(XmlError::Structure("<hierarchy> is empty".into()));
                }
                if plan.is_some() {
                    return Err(XmlError::Structure("multiple <hierarchy> sections".into()));
                }
                plan = Some(parse_hierarchy(&mut lexer)?);
            }
            Some(Token::Close { name }) if name == "deployment" => break,
            Some(t) => {
                return Err(XmlError::Structure(format!(
                    "unexpected element inside <deployment>: {t:?}"
                )))
            }
            None => {
                return Err(XmlError::Structure(
                    "missing </deployment> closing tag".into(),
                ))
            }
        }
    }
    plan.ok_or_else(|| XmlError::Structure("descriptor has no <hierarchy>".into()))
}

fn consume_resources(lexer: &mut Lexer<'_>) -> Result<(), XmlError> {
    loop {
        match lexer.next_token()? {
            Some(Token::Open {
                name, self_closing, ..
            }) if name == "node" => {
                if !self_closing {
                    // Tolerate <node></node> pairs.
                    match lexer.next_token()? {
                        Some(Token::Close { name }) if name == "node" => {}
                        _ => {
                            return Err(XmlError::Structure("<node> elements must be empty".into()))
                        }
                    }
                }
            }
            Some(Token::Close { name }) if name == "resources" => return Ok(()),
            Some(t) => {
                return Err(XmlError::Structure(format!(
                    "unexpected element inside <resources>: {t:?}"
                )))
            }
            None => return Err(XmlError::Structure("unterminated <resources>".into())),
        }
    }
}

fn parse_hierarchy(lexer: &mut Lexer<'_>) -> Result<DeploymentPlan, XmlError> {
    // First child of <hierarchy> must be the root <agent>.
    let (root_id, root_closed) = match lexer.next_token()? {
        Some(Token::Open {
            name,
            attrs,
            self_closing,
        }) if name == "agent" => (node_attr(&attrs, "agent")?, self_closing),
        other => {
            return Err(XmlError::Structure(format!(
                "expected root <agent>, got {other:?}"
            )))
        }
    };
    let mut plan = DeploymentPlan::with_root(root_id);
    let root = plan.root();
    if !root_closed {
        parse_children(lexer, &mut plan, root)?;
    }
    // Then </hierarchy>.
    match lexer.next_token()? {
        Some(Token::Close { name }) if name == "hierarchy" => Ok(plan),
        other => Err(XmlError::Structure(format!(
            "expected </hierarchy> after the root agent, got {other:?}"
        ))),
    }
}

fn parse_children(
    lexer: &mut Lexer<'_>,
    plan: &mut DeploymentPlan,
    parent: Slot,
) -> Result<(), XmlError> {
    loop {
        match lexer.next_token()? {
            Some(Token::Open {
                name,
                attrs,
                self_closing,
            }) if name == "agent" => {
                let id = node_attr(&attrs, "agent")?;
                let slot = plan
                    .add_agent(parent, id)
                    .map_err(|e| XmlError::Structure(e.to_string()))?;
                if !self_closing {
                    parse_children(lexer, plan, slot)?;
                }
            }
            Some(Token::Open {
                name,
                attrs,
                self_closing,
            }) if name == "server" => {
                let id = node_attr(&attrs, "server")?;
                plan.add_server(parent, id)
                    .map_err(|e| XmlError::Structure(e.to_string()))?;
                if !self_closing {
                    match lexer.next_token()? {
                        Some(Token::Close { name }) if name == "server" => {}
                        _ => {
                            return Err(XmlError::Structure(
                                "<server> elements cannot have children".into(),
                            ))
                        }
                    }
                }
            }
            Some(Token::Close { name }) if name == "agent" => return Ok(()),
            Some(t) => {
                return Err(XmlError::Structure(format!(
                    "unexpected element inside <agent>: {t:?}"
                )))
            }
            None => return Err(XmlError::Structure("unterminated <agent>".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{balanced_two_level, csd_tree, star};
    use adept_platform::generator::lyon_cluster;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn write_contains_all_nodes() {
        let p = star(&ids(4));
        let xml = write_xml(&p, None);
        assert!(xml.contains("<agent node=\"0\">"));
        for i in 1..4 {
            assert!(xml.contains(&format!("<server node=\"{i}\"/>")));
        }
    }

    #[test]
    fn write_with_platform_embeds_names() {
        let platform = lyon_cluster(3);
        let p = star(&ids(3));
        let xml = write_xml(&p, Some(&platform));
        assert!(xml.contains("name=\"lyon-0\""));
        assert!(xml.contains("power=\"400\""));
    }

    #[test]
    fn roundtrip_star() {
        let p = star(&ids(8));
        let q = parse_xml(&write_xml(&p, None)).unwrap();
        assert!(p.structurally_eq(&q));
    }

    #[test]
    fn roundtrip_csd_various_degrees() {
        for d in [1usize, 2, 3, 7] {
            let p = csd_tree(&ids(30), d);
            let q = parse_xml(&write_xml(&p, None)).unwrap();
            assert!(p.structurally_eq(&q), "degree {d}");
        }
    }

    #[test]
    fn roundtrip_balanced_with_platform() {
        let platform = lyon_cluster(20);
        let p = balanced_two_level(&ids(20), 4);
        let q = parse_xml(&write_xml(&p, Some(&platform))).unwrap();
        assert!(p.structurally_eq(&q));
    }

    #[test]
    fn parse_handwritten_descriptor() {
        let xml = r#"
            <?xml version="1.0"?>
            <!-- a comment -->
            <deployment>
              <resources>
                <node id="0"/><node id="1"/><node id="2"/>
              </resources>
              <hierarchy>
                <agent node="2">
                  <server node="0"></server>
                  <server node="1"/>
                </agent>
              </hierarchy>
            </deployment>
        "#;
        let p = parse_xml(xml).unwrap();
        assert_eq!(p.node(p.root()), NodeId(2));
        assert_eq!(p.server_count(), 2);
    }

    #[test]
    fn missing_node_attribute_is_reported() {
        let xml = "<deployment><hierarchy><agent></agent></hierarchy></deployment>";
        match parse_xml(xml) {
            Err(XmlError::MissingAttribute { element, attribute }) => {
                assert_eq!(element, "agent");
                assert_eq!(attribute, "node");
            }
            other => panic!("expected MissingAttribute, got {other:?}"),
        }
    }

    #[test]
    fn bad_node_id_is_reported() {
        let xml = "<deployment><hierarchy><agent node=\"zero\"/></hierarchy></deployment>";
        assert!(matches!(parse_xml(xml), Err(XmlError::BadAttribute { .. })));
    }

    #[test]
    fn duplicate_node_is_structure_error() {
        let xml = r#"<deployment><hierarchy>
            <agent node="0"><server node="0"/></agent>
        </hierarchy></deployment>"#;
        match parse_xml(xml) {
            Err(XmlError::Structure(msg)) => assert!(msg.contains("already used"), "{msg}"),
            other => panic!("expected Structure error, got {other:?}"),
        }
    }

    #[test]
    fn server_with_children_rejected() {
        let xml = r#"<deployment><hierarchy>
            <agent node="0"><server node="1"><server node="2"/></server></agent>
        </hierarchy></deployment>"#;
        assert!(parse_xml(xml).is_err());
    }

    #[test]
    fn text_content_rejected() {
        let xml = "<deployment>hello</deployment>";
        assert!(matches!(parse_xml(xml), Err(XmlError::Syntax { .. })));
    }

    #[test]
    fn unterminated_document_rejected() {
        let xml = "<deployment><hierarchy><agent node=\"0\">";
        assert!(parse_xml(xml).is_err());
    }

    #[test]
    fn escaping_roundtrip() {
        assert_eq!(unescape(&escape("a<b>&\"c")), "a<b>&\"c");
    }

    #[test]
    fn missing_hierarchy_rejected() {
        let xml = "<deployment><resources/></deployment>";
        match parse_xml(xml) {
            Err(XmlError::Structure(msg)) => assert!(msg.contains("no <hierarchy>")),
            other => panic!("expected Structure error, got {other:?}"),
        }
    }
}
