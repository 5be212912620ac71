//! Stress and adversarial-input tests for the XML substrate.

use kind_xml::parser::MAX_DEPTH;
use kind_xml::{parse, to_pretty_string, to_string, Element, Path, Transform, XmlError};

#[test]
fn large_flat_document_roundtrips() {
    let mut doc = String::from("<root>");
    for i in 0..5000 {
        doc.push_str(&format!("<item id=\"i{i}\" v=\"{}\"/>", i * 7));
    }
    doc.push_str("</root>");
    let parsed = parse(&doc).unwrap();
    assert_eq!(parsed.root.elements().count(), 5000);
    let out = to_string(&parsed.root);
    assert_eq!(parse(&out).unwrap(), parsed);
}

fn nested(depth: usize) -> String {
    let mut doc = String::new();
    for i in 0..depth {
        doc.push_str(&format!("<d{i}>"));
    }
    doc.push_str("leaf");
    for i in (0..depth).rev() {
        doc.push_str(&format!("</d{i}>"));
    }
    doc
}

#[test]
fn deeply_nested_document() {
    let parsed = parse(&nested(MAX_DEPTH)).unwrap();
    assert_eq!(parsed.root.deep_text(), "leaf");
    assert_eq!(parsed.root.subtree_size(), MAX_DEPTH);
}

#[test]
fn nesting_past_the_limit_is_a_parse_error() {
    let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
    assert!(
        matches!(&err, XmlError::Parse { message, .. } if message.contains("nest")),
        "{err:?}"
    );
    // Far past the limit, on a small stack: a typed error, not an abort.
    let doc = "<a>".repeat(10_000);
    let err = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || parse(&doc).unwrap_err())
        .unwrap()
        .join()
        .expect("parse returns instead of overflowing the stack");
    assert!(matches!(err, XmlError::Parse { .. }), "{err:?}");
}

#[test]
fn malformed_inputs_error_not_panic() {
    for bad in [
        "",
        "<",
        "<a",
        "<a>",
        "<a></b>",
        "<a x=></a>",
        "<a x=\"unterminated></a>",
        "<a>&unknownentity;</a>",
        "<a>&#xZZ;</a>",
        "<!DOCTYPE unterminated",
        "<a><![CDATA[unterminated</a>",
        "text outside",
        "<1bad/>",
    ] {
        assert!(parse(bad).is_err(), "should reject: {bad:?}");
    }
}

#[test]
fn path_over_wide_document() {
    let mut root = Element::new("cm");
    for i in 0..1000 {
        root = root.with_child(
            Element::new("class")
                .with_attr("name", format!("c{i}"))
                .with_child(Element::new("attr").with_attr("name", format!("a{i}"))),
        );
    }
    let p = Path::parse("class[@name='c500']/attr/@name").unwrap();
    assert_eq!(p.select_first_string(&root), Some("a500".to_string()));
    let all = Path::parse("//attr").unwrap();
    assert_eq!(all.select_elems(&root).len(), 1000);
}

#[test]
fn path_parse_errors() {
    for bad in ["", "/", "a[", "a[@x", "a[@x=]", "a[@x='v'", "a/@b/c", "a//"] {
        assert!(Path::parse(bad).is_err(), "should reject path: {bad:?}");
    }
}

#[test]
fn transform_chaining() {
    // Transform output is a regular element: transforms compose.
    let t1 = Transform::parse(
        r#"<transform output="stage1">
             <rule match="//raw"><cooked v="{@v}"/></rule>
           </transform>"#,
    )
    .unwrap();
    let t2 = Transform::parse(
        r#"<transform output="stage2">
             <rule match="//cooked"><served v="{@v}!"/></rule>
           </transform>"#,
    )
    .unwrap();
    let input = parse(r#"<in><raw v="1"/><raw v="2"/></in>"#).unwrap();
    let stage1 = t1.apply(&input.root);
    let stage2 = t2.apply(&stage1);
    let vs: Vec<_> = stage2
        .elements_named("served")
        .map(|e| e.attr("v").unwrap().to_string())
        .collect();
    assert_eq!(vs, vec!["1!", "2!"]);
}

#[test]
fn pretty_print_is_reparseable() {
    let doc = parse(
        r#"<gcm name="X"><class name="a"><method name="m"/></class><rule>x &lt; y</rule></gcm>"#,
    )
    .unwrap();
    let pretty = to_pretty_string(&doc.root);
    assert_eq!(parse(&pretty).unwrap().root, doc.root);
}

#[test]
fn unicode_content_survives() {
    let doc = parse("<a note=\"ü…é\">Ludäscher — ICDE</a>").unwrap();
    assert_eq!(doc.root.attr("note"), Some("ü…é"));
    assert_eq!(doc.root.text(), "Ludäscher — ICDE");
    let rt = parse(&to_string(&doc.root)).unwrap();
    assert_eq!(rt.root, doc.root);
}

#[test]
fn numeric_entity_roundtrip() {
    let doc = parse("<a>&#955;&#x3BB;</a>").unwrap();
    assert_eq!(doc.root.text(), "λλ");
}
