//! Text serialization in the `t/v/e` format of the in-memory study
//! (RapidsAtHKUST/SubgraphMatching), whose datasets the paper uses:
//!
//! ```text
//! t <num-vertices> <num-edges>
//! v <id> <label> <degree>
//! e <u> <v>
//! ```
//!
//! `degree` on `v` lines is redundant and ignored on input (emitted for
//! compatibility on output).

use std::io::{BufRead, Write};
use std::num::ParseIntError;

use crate::{Graph, GraphBuilder};

/// Errors produced while parsing the text format.
#[derive(Debug)]
pub enum ParseError {
    /// Line did not start with `t`, `v` or `e`.
    UnknownRecord(String),
    /// Wrong number of fields on a line.
    FieldCount { line: String, expected: usize },
    /// A field failed integer parsing (ids, labels and the header's counts
    /// are `u32`, so a count past the vertex id range fails here).
    Int(ParseIntError),
    /// `v`/`e` record appeared before the `t` header.
    MissingHeader,
    /// A `v` id at or past the number of `v` lines, or one given twice:
    /// ids must be exactly `0..vertices`.
    VertexId { id: u32, vertices: usize },
    /// An `e` endpoint that no `v` line declares.
    EdgeEndpoint { u: u32, v: u32, vertices: usize },
    /// An `e` line joining a vertex to itself.
    SelfLoop(u32),
    /// A `v` label outside the label universe `0..universe`.
    Label { label: u32, universe: u32 },
    /// Underlying reader failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownRecord(l) => write!(f, "unknown record: {l:?}"),
            ParseError::FieldCount { line, expected } => {
                write!(f, "expected {expected} fields in {line:?}")
            }
            ParseError::Int(e) => write!(f, "integer field: {e}"),
            ParseError::MissingHeader => write!(f, "v/e record before the t header"),
            ParseError::VertexId { id, vertices } => {
                write!(f, "vertex id {id} repeated or not below the {vertices} v lines")
            }
            ParseError::EdgeEndpoint { u, v, vertices } => {
                write!(f, "edge ({u},{v}) names a vertex past the {vertices} v lines")
            }
            ParseError::SelfLoop(v) => write!(f, "self-loop on vertex {v}"),
            ParseError::Label { label, universe } => write!(f, "label {label} outside the universe 0..{universe}"),
            ParseError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseIntError> for ParseError {
    fn from(e: ParseIntError) -> Self {
        ParseError::Int(e)
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// The most entries the `t` header may reserve ahead of the lines that
/// justify them: the header is a sizing hint, not a promise.
const HINT_CAP: usize = 1 << 16;

/// The next whitespace-separated field of `line` as a `u32`; a missing one
/// is a [`ParseError::FieldCount`] against `expected` fields.
fn field<'a>(fields: &mut impl Iterator<Item = &'a str>, line: &str, expected: usize) -> Result<u32, ParseError> {
    let f = fields.next().ok_or_else(|| ParseError::FieldCount { line: line.to_string(), expected })?;
    Ok(f.parse()?)
}

/// Reads a graph from the `t/v/e` text format. The label universe is sized
/// as `max label + 1` unless `label_universe` overrides it (pass the data
/// graph's universe when loading query graphs so label ids stay aligned).
///
/// Hostile input is an error, never a panic: the `t` counts only size
/// reservations (capped at [`HINT_CAP`]), ids must be exactly `0..n` for `n`
/// `v` lines, and edge endpoints, self-loops and labels are checked before
/// the graph is built. With `label_universe` given, nothing is allocated
/// that the text's lines do not pay for. Without it the universe is the
/// largest label + 1, and the label index holds one offset per label of it
/// (`v 0 4294967294 0` asks for 16 GB), so a caller reading untrusted text
/// passes the universe it expects.
pub fn read_graph<R: BufRead>(mut reader: R, label_universe: Option<u32>) -> Result<Graph, ParseError> {
    // (id, label) per `v` line, in input order.
    let mut vertices: Vec<(u32, u32)> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut saw_header = false;
    let mut buf = String::new();
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        let record = it.next();
        if matches!(record, Some("v" | "e")) && !saw_header {
            return Err(ParseError::MissingHeader);
        }
        match record {
            Some("t") => {
                saw_header = true;
                let n = field(&mut it, line, 3)?;
                let m = field(&mut it, line, 3)?;
                if it.next().is_some() {
                    return Err(ParseError::FieldCount { line: line.to_string(), expected: 3 });
                }
                vertices.reserve((n as usize).min(HINT_CAP));
                edges.reserve((m as usize).min(HINT_CAP));
            }
            Some("v") => {
                let id = field(&mut it, line, 4)?;
                let label = field(&mut it, line, 4)?;
                // `u32::MAX` is past every universe a `u32` can size.
                let universe = label_universe.unwrap_or(u32::MAX);
                if label >= universe {
                    return Err(ParseError::Label { label, universe });
                }
                vertices.push((id, label));
            }
            Some("e") => {
                let u = field(&mut it, line, 3)?;
                let v = field(&mut it, line, 3)?;
                if u == v {
                    return Err(ParseError::SelfLoop(u));
                }
                edges.push(if u < v { (u, v) } else { (v, u) });
            }
            _ => return Err(ParseError::UnknownRecord(line.to_string())),
        }
    }
    let n = vertices.len();
    // No label reaches `u32::MAX`, so it marks an id no line has named yet.
    let mut labels = vec![u32::MAX; n];
    for &(id, label) in &vertices {
        match labels.get_mut(id as usize) {
            Some(slot) if *slot == u32::MAX => *slot = label,
            _ => return Err(ParseError::VertexId { id, vertices: n }),
        }
    }
    if let Some(&(u, v)) = edges.iter().find(|&&(_, v)| v as usize >= n) {
        return Err(ParseError::EdgeEndpoint { u, v, vertices: n });
    }
    let universe = label_universe.unwrap_or_else(|| labels.iter().max().map_or(0, |&m| m + 1));
    Ok(GraphBuilder::from_parts(universe, labels, edges).build())
}

/// Writes a graph in the `t/v/e` text format.
pub fn write_graph<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "t {} {}", g.num_vertices(), g.num_edges())?;
    for v in g.vertices() {
        writeln!(w, "v {} {} {}", v, g.label(v), g.degree(v))?;
    }
    for (u, v) in g.edges() {
        writeln!(w, "e {u} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "t 3 2\nv 0 0 1\nv 1 1 2\nv 2 0 1\ne 0 1\ne 1 2\n";

    #[test]
    fn round_trip() {
        let g = read_graph(Cursor::new(SAMPLE), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.label(1), 1);
        let mut out = Vec::new();
        write_graph(&g, &mut out).unwrap();
        let g2 = read_graph(Cursor::new(out), None).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.labels(), g.labels());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = format!("# header comment\n\n{SAMPLE}");
        let g = read_graph(Cursor::new(text), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn label_universe_override() {
        let g = read_graph(Cursor::new(SAMPLE), Some(10)).unwrap();
        assert_eq!(g.num_labels(), 10);
    }

    #[test]
    fn rejects_missing_header() {
        let err = read_graph(Cursor::new("v 0 0 0\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::MissingHeader));
    }

    #[test]
    fn rejects_garbage() {
        let err = read_graph(Cursor::new("t 1 0\nx y z\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::UnknownRecord(_)));
    }

    #[test]
    fn rejects_short_edge_line() {
        let err = read_graph(Cursor::new("t 2 1\nv 0 0 0\nv 1 0 0\ne 0\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::FieldCount { .. }));
    }

    #[test]
    fn header_counts_past_the_id_range_are_an_error_not_an_allocation() {
        // A trillion-vertex header used to be reserved as written.
        let err = read_graph(Cursor::new("t 1000000000000 0\nv 0 0 0\n"), Some(4)).unwrap_err();
        assert!(matches!(err, ParseError::Int(_)), "{err}");
        let err = read_graph(Cursor::new("t 1 1000000000000\nv 0 0 0\n"), Some(4)).unwrap_err();
        assert!(matches!(err, ParseError::Int(_)), "{err}");
    }

    #[test]
    fn header_counts_are_a_hint() {
        // Counts that fit but that the lines do not bear out: the graph is
        // what the lines say.
        let g = read_graph(Cursor::new("t 4000000000 4000000000\nv 0 1 0\nv 1 0 0\ne 1 0\n"), None).unwrap();
        assert_eq!((g.num_vertices(), g.num_edges(), g.labels()), (2, 1, &[1, 0][..]));
        let g = read_graph(Cursor::new("t 0 0\nv 1 0 0\nv 0 2 0\n"), None).unwrap();
        assert_eq!((g.num_vertices(), g.num_labels(), g.labels()), (2, 3, &[2, 0][..]));
    }

    #[test]
    fn vertex_ids_must_be_exactly_the_v_lines() {
        // Three billion would have sized a 12 GB label array.
        let err = read_graph(Cursor::new("t 1 0\nv 3000000000 0 0\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::VertexId { id: 3_000_000_000, vertices: 1 }), "{err}");
        let err = read_graph(Cursor::new("t 2 0\nv 0 0 0\nv 2 0 0\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::VertexId { id: 2, vertices: 2 }), "{err}");
        let err = read_graph(Cursor::new("t 2 0\nv 1 0 0\nv 1 0 0\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::VertexId { id: 1, vertices: 2 }), "{err}");
    }

    #[test]
    fn edge_endpoints_must_be_declared_vertices() {
        let err = read_graph(Cursor::new("t 2 1\nv 0 0 0\nv 1 0 0\ne 0 2\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::EdgeEndpoint { u: 0, v: 2, vertices: 2 }), "{err}");
        // An edge may precede the `v` lines that declare its endpoints.
        let g = read_graph(Cursor::new("t 2 1\ne 1 0\nv 0 0 0\nv 1 0 0\n"), None).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_are_an_error() {
        let err = read_graph(Cursor::new("t 1 1\nv 0 0 0\ne 0 0\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::SelfLoop(0)), "{err}");
    }

    #[test]
    fn labels_must_lie_in_the_universe() {
        let err = read_graph(Cursor::new("t 1 0\nv 0 4 0\n"), Some(4)).unwrap_err();
        assert!(matches!(err, ParseError::Label { label: 4, universe: 4 }), "{err}");
        // With no universe given it is `max + 1`, which `u32::MAX` overflows.
        let err = read_graph(Cursor::new("t 1 0\nv 0 4294967295 0\n"), None).unwrap_err();
        assert!(matches!(err, ParseError::Label { label: u32::MAX, .. }), "{err}");
    }
}
