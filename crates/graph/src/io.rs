//! Plain-text serialization of labeled graphs.
//!
//! The benchmark harness writes the synthetic datasets it generates so runs
//! are reproducible and inspectable. The format is line-oriented:
//!
//! ```text
//! # comments start with '#'
//! n <node-count>
//! v <node-id> <label-name>
//! e <from-id> <to-id>
//! ```
//!
//! Node lines are optional for unlabeled graphs (absent nodes get the label
//! `"_"`); edge lines may reference any id below the declared node count.

use std::io::{BufRead, BufReader, Read, Write};

use crate::error::{GraphError, Result};
use crate::graph::LabeledGraph;
use crate::ids::NodeId;

/// Writes `g` in the text format to `w`.
pub fn write_graph<W: Write>(g: &LabeledGraph, mut w: W) -> Result<()> {
    writeln!(
        w,
        "# qpgc graph: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    )?;
    writeln!(w, "n {}", g.node_count())?;
    for v in g.nodes() {
        let name = g.label_name(v).unwrap_or("_");
        writeln!(w, "v {} {}", v.0, name)?;
    }
    for (u, v) in g.edges() {
        writeln!(w, "e {} {}", u.0, v.0)?;
    }
    Ok(())
}

/// Reads a graph in the text format from `r`.
pub fn read_graph<R: Read>(r: R) -> Result<LabeledGraph> {
    let reader = BufReader::new(r);
    let mut g = LabeledGraph::new();
    let mut declared: Option<usize> = None;
    let mut labels: Vec<Option<String>> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line has a first token");
        let parse_err = |msg: &str| GraphError::Parse {
            line: line_no,
            message: msg.to_string(),
        };
        match tag {
            "n" => {
                let count: usize = parts
                    .next()
                    .ok_or_else(|| parse_err("missing node count"))?
                    .parse()
                    .map_err(|_| parse_err("invalid node count"))?;
                declared = Some(count);
                labels.resize(count, None);
            }
            "v" => {
                let id: usize = parts
                    .next()
                    .ok_or_else(|| parse_err("missing node id"))?
                    .parse()
                    .map_err(|_| parse_err("invalid node id"))?;
                let name = parts.next().ok_or_else(|| parse_err("missing label"))?;
                if id >= labels.len() {
                    labels.resize(id + 1, None);
                }
                labels[id] = Some(name.to_string());
            }
            "e" => {
                let u: u32 = parts
                    .next()
                    .ok_or_else(|| parse_err("missing edge source"))?
                    .parse()
                    .map_err(|_| parse_err("invalid edge source"))?;
                let v: u32 = parts
                    .next()
                    .ok_or_else(|| parse_err("missing edge target"))?
                    .parse()
                    .map_err(|_| parse_err("invalid edge target"))?;
                edges.push((u, v));
            }
            _ => {
                return Err(parse_err(&format!("unknown record tag `{tag}`")));
            }
        }
    }

    let node_count = declared.unwrap_or(labels.len()).max(labels.len());
    for i in 0..node_count {
        let name = labels.get(i).and_then(|o| o.as_deref()).unwrap_or("_");
        g.add_node_with_label(name);
    }
    for &(u, v) in &edges {
        if (u as usize) >= g.node_count() || (v as usize) >= g.node_count() {
            return Err(GraphError::Parse {
                line: 0,
                message: format!("edge ({u}, {v}) references an undeclared node"),
            });
        }
    }
    // Bulk sorted-dedup insert: O(m log m) instead of a per-edge O(deg)
    // duplicate scan.
    g.extend_edges(edges.into_iter().map(|(u, v)| (NodeId(u), NodeId(v))));
    Ok(g)
}

/// Serializes `g` to a `String` in the text format.
pub fn to_string(g: &LabeledGraph) -> String {
    let mut buf = Vec::new();
    write_graph(g, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("graph text format is valid UTF-8")
}

/// Parses a graph from a string in the text format.
pub fn from_str(s: &str) -> Result<LabeledGraph> {
    read_graph(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabeledGraph {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("BSA");
        let b = g.add_node_with_label("MSA");
        let c = g.add_node_with_label("C");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        g
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let text = to_string(&g);
        let g2 = from_str(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(g2.label_name(v), g.label_name(v));
        }
        let mut e1: Vec<_> = g.edges().collect();
        let mut e2: Vec<_> = g2.edges().collect();
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# hello\n\nn 2\nv 0 A\nv 1 B\n\ne 0 1\n";
        let g = from_str(text).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.label_name(NodeId(0)), Some("A"));
    }

    #[test]
    fn nodes_without_labels_get_placeholder() {
        let text = "n 3\ne 0 1\ne 1 2\n";
        let g = from_str(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.label_name(NodeId(0)), Some("_"));
    }

    #[test]
    fn rejects_unknown_tag() {
        assert!(from_str("x 1 2\n").is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        assert!(from_str("n abc\n").is_err());
        assert!(from_str("e 0\n").is_err());
        assert!(from_str("v 0\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_edge() {
        assert!(from_str("n 2\ne 0 5\n").is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = from_str("").unwrap();
        assert_eq!(g.node_count(), 0);
    }
}
