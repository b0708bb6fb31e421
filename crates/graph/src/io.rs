//! Graph serialization: SNAP-style text edge lists and a compact binary
//! snapshot format.
//!
//! # The `PDEC1` base format
//!
//! The original binary format stores the CSR arrays directly so that large
//! generated workloads can be cached between experiment runs:
//!
//! ```text
//! magic   b"PDEC1\0"     6 bytes
//! n       u64 LE
//! arcs    u64 LE          (= 2m)
//! offsets (n + 1) × u64 LE
//! targets arcs × u32 LE
//! ```
//!
//! # The `PDEC2` sectioned container
//!
//! Resident services ([`pardec serve`]) need more than the graph in one
//! file: the clustering, the distance-oracle tables, and whatever future
//! state (weighted oracles, compressed CSR) the ROADMAP adds. `PDEC2`
//! wraps any number of **sections** behind a versioned table:
//!
//! ```text
//! magic         b"PDEC2\0"                        6 bytes
//! table version u32 LE                            (currently 1)
//! section count u32 LE
//! entries       count × { tag u32, version u32, offset u64, len u64 }
//! payloads      8-byte-aligned byte ranges, zero padding between them
//! ```
//!
//! Offsets are absolute file offsets and each payload is 8-byte aligned, so
//! a memory-mapped snapshot can hand out aligned `&[u8]` views without
//! copying the file through a parser. Every snapshot carries exactly one
//! graph section ([`SECTION_GRAPH`], payload = the `PDEC1` body); other
//! crates register their own tags (the session layer persists clustering
//! and oracle sections). Unknown tags are preserved and ignored — old
//! readers skip what they do not understand, new readers fall back to
//! recomputing sections that are absent.
//!
//! There is one graph read path, [`Snapshot::graph`], and it trusts
//! nothing: every snapshot is treated as untrusted input. A plain section
//! is bulk-copied into the CSR arrays and then run through the full
//! [`CsrGraph::check_invariants`] pass (offsets, targets in range, strictly
//! sorted, loop-free, symmetric). A compressed section gets the same checks
//! on its records, without being decompressed. No per-edge builder pass runs,
//! so startup costs a copy plus one linear scan, and no payload can break
//! a CSR invariant.
//!
//! Every decoder reads through the checked [`Reader`]: hostile headers
//! produce an [`io::Error`], never an overflow panic or a huge allocation,
//! and truncating a snapshot at any byte yields an error (asserted
//! exhaustively by the tests here and mutation-fuzzed in
//! `tests/proptests_session.rs`).

use crate::ccsr::BLOCK;
use crate::codec::{invalid_data, Reader};
use crate::{Backend, CcsrGraph, CsrGraph, GraphBuilder, GraphRepr, NodeId, WeightedGraph};
use std::io::{self, BufRead, Write};

const MAGIC: &[u8; 6] = b"PDEC1\0";
const MAGIC_V2: &[u8; 6] = b"PDEC2\0";

/// Current version of the `PDEC2` section table layout.
pub const SNAPSHOT_TABLE_VERSION: u32 = 1;

/// Section tag of the graph CSR payload (`b"GRPH"`, little-endian).
pub const SECTION_GRAPH: u32 = u32::from_le_bytes(*b"GRPH");

/// Current payload version written for [`SECTION_GRAPH`].
pub const SECTION_GRAPH_VERSION: u32 = 1;

/// Section tag of the gap-coded compressed graph payload (`b"GRPC"`):
///
/// ```text
/// n        u64 LE
/// arcs     u64 LE                      (= 2m)
/// data_len u64 LE
/// index    ⌈n / BLOCK⌉ × u64 LE
/// data     data_len bytes              (concatenated varint records)
/// ```
///
/// A snapshot carries exactly one graph section — [`SECTION_GRAPH`] *or*
/// this one, chosen by the writer's [`Backend`].
pub const SECTION_GRAPH_COMPRESSED: u32 = u32::from_le_bytes(*b"GRPC");

/// Current payload version written for [`SECTION_GRAPH_COMPRESSED`].
pub const SECTION_GRAPH_COMPRESSED_VERSION: u32 = 1;

/// Upper bound on the section count a reader will accept — far above any
/// legitimate snapshot, low enough that a hostile count cannot drive a
/// large allocation.
const MAX_SECTIONS: usize = 4096;

/// Bytes per section-table entry: tag, version, offset, len.
const ENTRY_BYTES: usize = 4 + 4 + 8 + 8;

/// Writes `g` as a text edge list: a `# nodes <n> edges <m>` header followed
/// by one `u<TAB>v` line per undirected edge.
pub fn write_edge_list(g: &CsrGraph, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    Ok(())
}

/// Reads a text edge list (comment lines start with `#`; separators are any
/// whitespace). Node count is `max id + 1` unless a `# nodes n …` header
/// declares a larger one.
pub fn read_edge_list(r: &mut impl BufRead) -> io::Result<CsrGraph> {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut declared_n: usize = 0;
    let mut max_id: usize = 0;
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix('#') {
            // Parse an optional "nodes <n>" declaration.
            let mut it = rest.split_whitespace();
            while let Some(tok) = it.next() {
                if tok == "nodes" {
                    if let Some(Ok(n)) = it.next().map(str::parse::<usize>) {
                        declared_n = declared_n.max(n);
                    }
                }
            }
            continue;
        }
        let mut it = t.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (
                a.parse::<NodeId>()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
                b.parse::<NodeId>()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            ),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed edge line: {t:?}"),
                ))
            }
        };
        max_id = max_id.max(u as usize).max(v as usize);
        edges.push((u, v));
    }
    let n = declared_n.max(if edges.is_empty() { 0 } else { max_id + 1 });
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Writes `g` as a text edge list with a third weight column: a
/// `# nodes <n> edges <m>` header followed by one `u<TAB>v<TAB>w` line per
/// undirected edge.
pub fn write_weighted_edge_list(g: &WeightedGraph, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for u in 0..g.num_nodes() as NodeId {
        for (v, wt) in g.upper_neighbors(u) {
            writeln!(w, "{u}\t{v}\t{wt}")?;
        }
    }
    Ok(())
}

/// Reads a text edge list with an *optional* third weight column (missing
/// weights default to 1, so every unweighted edge list is also a valid
/// weighted one). Comments, separators, and the `# nodes n` header follow
/// [`read_edge_list`]; duplicate edges keep their smallest weight.
pub fn read_weighted_edge_list(r: &mut impl BufRead) -> io::Result<WeightedGraph> {
    let mut edges: Vec<(NodeId, NodeId, u64)> = Vec::new();
    let mut declared_n: usize = 0;
    let mut max_id: usize = 0;
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            while let Some(tok) = it.next() {
                if tok == "nodes" {
                    if let Some(Ok(n)) = it.next().map(str::parse::<usize>) {
                        declared_n = declared_n.max(n);
                    }
                }
            }
            continue;
        }
        let mut it = t.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (
                a.parse::<NodeId>()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
                b.parse::<NodeId>()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            ),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed edge line: {t:?}"),
                ))
            }
        };
        let w = match it.next() {
            Some(s) => s
                .parse::<u64>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            None => 1,
        };
        max_id = max_id.max(u as usize).max(v as usize);
        edges.push((u, v, w));
    }
    let n = declared_n.max(if edges.is_empty() { 0 } else { max_id + 1 });
    Ok(WeightedGraph::from_edges(n, &edges))
}

/// Encodes the `PDEC1` graph body (everything after the magic): `n`,
/// `arcs`, offsets, targets. This is also the [`SECTION_GRAPH`] payload.
fn encode_graph_body(g: &CsrGraph) -> Vec<u8> {
    let (offsets, targets) = (g.raw_offsets(), g.raw_targets());
    let mut buf = Vec::with_capacity(16 + offsets.len() * 8 + targets.len() * 4);
    for &x in [g.num_nodes(), targets.len()].iter().chain(offsets) {
        buf.extend_from_slice(&(x as u64).to_le_bytes());
    }
    for &t in targets {
        buf.extend_from_slice(&t.to_le_bytes());
    }
    buf
}

/// Decodes a [`SECTION_GRAPH`] payload: a bulk copy of the CSR arrays,
/// then the full [`CsrGraph::check_invariants`] pass.
fn decode_graph(body: &[u8]) -> io::Result<CsrGraph> {
    let mut r = Reader::new(body);
    let n = r.usize()?;
    let arcs = r.usize()?;
    let offsets = r
        .u64s(n.saturating_add(1))?
        .into_iter()
        .map(usize::try_from)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| invalid_data("offset does not fit in usize"))?;
    let targets = r.u32s(arcs)?;
    r.finish()?;
    CsrGraph::try_from_parts(offsets, targets).map_err(invalid_data)
}

/// Encodes the [`SECTION_GRAPH_COMPRESSED`] payload.
fn encode_cgraph_body(c: &CcsrGraph) -> Vec<u8> {
    let (data, index) = (c.raw_data(), c.raw_index());
    let mut buf = Vec::with_capacity(24 + index.len() * 8 + data.len());
    for x in [c.num_nodes() as u64, c.num_arcs() as u64, data.len() as u64] {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    for &o in index {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    buf.extend_from_slice(data);
    buf
}

/// Decodes a [`SECTION_GRAPH_COMPRESSED`] payload: the full O(n + m)
/// [`CcsrGraph::validate_parts`] pass, symmetry included (the trusted-path
/// varint readers panic on malformed records, so unvalidated bytes must
/// never reach them).
fn decode_cgraph(body: &[u8]) -> io::Result<CcsrGraph> {
    let mut r = Reader::new(body);
    let n = r.usize()?;
    let arcs = r.usize()?;
    let data_len = r.usize()?;
    let index = r.u64s(n.div_ceil(BLOCK))?;
    let data = r.bytes(data_len)?.to_vec();
    r.finish()?;
    CcsrGraph::validate_parts(n, arcs, &data, &index).map_err(invalid_data)?;
    Ok(CcsrGraph::from_raw_parts(n, arcs, data, index))
}

/// Serializes `g` into the `PDEC1` binary snapshot format (graph only; use
/// [`save_snapshot`] to persist additional sections).
pub fn save_binary(g: &CsrGraph, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&encode_graph_body(g))
}

/// Deserializes the graph of a `PDEC1` **or** `PDEC2` snapshot as a plain
/// CSR (decompressing a compressed section); extra `PDEC2` sections are
/// ignored.
pub fn load_binary(bytes: &[u8]) -> io::Result<CsrGraph> {
    Ok(match Snapshot::parse(bytes)?.graph()? {
        GraphRepr::Plain(g) => g,
        GraphRepr::Compressed(c) => c.to_csr(),
    })
}

/// One section to persist alongside the graph in a `PDEC2` snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionData {
    /// Four-byte tag (conventionally ASCII via `u32::from_le_bytes`).
    pub tag: u32,
    /// Payload layout version, interpreted by the owning crate.
    pub version: u32,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Serializes `g` plus `extra` sections into a `PDEC2` sectioned snapshot.
///
/// The graph always becomes the first section ([`SECTION_GRAPH`]); callers
/// must not pass that tag themselves. Payloads are laid out in argument
/// order, each 8-byte aligned.
pub fn save_snapshot(g: &CsrGraph, extra: &[SectionData], w: &mut impl Write) -> io::Result<()> {
    save_snapshot_sections(
        SECTION_GRAPH,
        SECTION_GRAPH_VERSION,
        encode_graph_body(g),
        extra,
        w,
    )
}

/// [`save_snapshot`] for either backend: a plain repr writes a
/// [`SECTION_GRAPH`] section, a compressed repr a
/// [`SECTION_GRAPH_COMPRESSED`] one — so the on-disk footprint follows the
/// in-memory choice and a reload round-trips the backend.
pub fn save_snapshot_repr(
    g: &GraphRepr,
    extra: &[SectionData],
    w: &mut impl Write,
) -> io::Result<()> {
    match g {
        GraphRepr::Plain(g) => save_snapshot(g, extra, w),
        GraphRepr::Compressed(c) => save_snapshot_sections(
            SECTION_GRAPH_COMPRESSED,
            SECTION_GRAPH_COMPRESSED_VERSION,
            encode_cgraph_body(c),
            extra,
            w,
        ),
    }
}

fn save_snapshot_sections(
    graph_tag: u32,
    graph_version: u32,
    graph_body: Vec<u8>,
    extra: &[SectionData],
    w: &mut impl Write,
) -> io::Result<()> {
    assert!(
        extra
            .iter()
            .all(|s| s.tag != SECTION_GRAPH && s.tag != SECTION_GRAPH_COMPRESSED),
        "the graph section is written implicitly"
    );
    assert!(extra.len() < MAX_SECTIONS, "too many sections");
    let count = 1 + extra.len();
    let table_end = MAGIC_V2.len() + 8 + count * ENTRY_BYTES;

    let mut header = Vec::with_capacity(table_end);
    header.extend_from_slice(MAGIC_V2);
    header.extend_from_slice(&SNAPSHOT_TABLE_VERSION.to_le_bytes());
    header.extend_from_slice(&(count as u32).to_le_bytes());
    let mut cursor = table_end;
    let mut offsets = Vec::with_capacity(count);
    for (tag, version, len) in std::iter::once((graph_tag, graph_version, graph_body.len()))
        .chain(extra.iter().map(|s| (s.tag, s.version, s.payload.len())))
    {
        cursor = cursor.next_multiple_of(8);
        header.extend_from_slice(&tag.to_le_bytes());
        header.extend_from_slice(&version.to_le_bytes());
        header.extend_from_slice(&(cursor as u64).to_le_bytes());
        header.extend_from_slice(&(len as u64).to_le_bytes());
        offsets.push(cursor);
        cursor += len;
    }
    w.write_all(&header)?;
    let mut written = table_end;
    for (start, payload) in offsets
        .iter()
        .zip(std::iter::once(&graph_body).chain(extra.iter().map(|s| &s.payload)))
    {
        for _ in written..*start {
            w.write_all(&[0])?; // alignment padding
        }
        w.write_all(payload)?;
        written = start + payload.len();
    }
    Ok(())
}

/// One parsed entry of a snapshot's section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// Four-byte tag.
    pub tag: u32,
    /// Payload layout version.
    pub version: u32,
    /// Absolute payload offset within the snapshot.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// A parsed (but not yet decoded) binary snapshot: the section table over a
/// borrowed byte buffer. Works for both formats — a `PDEC1` file parses as
/// a single implicit graph section — so every reader in the workspace can
/// accept either.
#[derive(Clone, Debug)]
pub struct Snapshot<'a> {
    bytes: &'a [u8],
    entries: Vec<SectionEntry>,
}

impl<'a> Snapshot<'a> {
    /// Parses the section table (`PDEC2`) or synthesizes one (`PDEC1`).
    ///
    /// Structural guarantees on success: a graph section exists, every
    /// section's byte range lies within `bytes`, and the ranges reach the
    /// end of `bytes` exactly — so truncating a valid snapshot at any byte
    /// fails either here or in the graph decode, never silently.
    pub fn parse(bytes: &'a [u8]) -> io::Result<Snapshot<'a>> {
        if bytes.starts_with(MAGIC) {
            let entries = vec![SectionEntry {
                tag: SECTION_GRAPH,
                version: SECTION_GRAPH_VERSION,
                offset: MAGIC.len(),
                len: bytes.len() - MAGIC.len(),
            }];
            return Ok(Snapshot { bytes, entries });
        }
        let mut r = Reader::new(bytes);
        if r.bytes(MAGIC_V2.len()).ok() != Some(&MAGIC_V2[..]) {
            return Err(invalid_data("bad magic"));
        }
        let table_version = r.u32()?;
        if table_version != SNAPSHOT_TABLE_VERSION {
            return Err(invalid_data(format!(
                "unsupported snapshot table version {table_version}"
            )));
        }
        let count = r.u32()? as usize;
        if count == 0 || count > MAX_SECTIONS {
            return Err(invalid_data(format!("implausible section count {count}")));
        }
        let mut table = r.records(count, ENTRY_BYTES)?;
        let table_end = r.position();
        let mut entries = Vec::with_capacity(count);
        let mut end = table_end;
        for _ in 0..count {
            let (tag, version) = (table.u32()?, table.u32()?);
            let (offset, len) = (table.usize()?, table.usize()?);
            // `get` bounds both ends without any offset arithmetic.
            if offset < table_end || bytes.get(offset..).and_then(|t| t.get(..len)).is_none() {
                return Err(invalid_data("section range out of bounds"));
            }
            end = end.max(offset + len);
            entries.push(SectionEntry {
                tag,
                version,
                offset,
                len,
            });
        }
        // Pin the file length: trailing bytes beyond the last section would
        // make some truncations of a longer file parse successfully.
        if end != bytes.len() {
            return Err(invalid_data("trailing bytes after last section"));
        }
        if !entries
            .iter()
            .any(|e| e.tag == SECTION_GRAPH || e.tag == SECTION_GRAPH_COMPRESSED)
        {
            return Err(invalid_data("snapshot has no graph section"));
        }
        Ok(Snapshot { bytes, entries })
    }

    /// The parsed section table, in file order.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Payload and version of the first section with `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<(u32, &'a [u8])> {
        self.entries
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| (e.version, &self.bytes[e.offset..e.offset + e.len]))
    }

    /// Payload of the first section with `tag`, if present; a layout
    /// version other than `version` is an error (`what` names the section
    /// in it).
    pub fn versioned(&self, tag: u32, version: u32, what: &str) -> io::Result<Option<&'a [u8]>> {
        match self.section(tag) {
            Some((v, body)) if v == version => Ok(Some(body)),
            Some((v, _)) => Err(invalid_data(format!(
                "unsupported {what} section version {v}"
            ))),
            None => Ok(None),
        }
    }

    /// Which [`Backend`] the snapshot's graph section was written with.
    pub fn graph_backend(&self) -> Backend {
        if self.section(SECTION_GRAPH).is_some() {
            Backend::Plain
        } else {
            Backend::Compressed
        }
    }

    /// Decodes and fully validates the graph (see the module docs) into
    /// the backend it was written with: a plain section loads as a plain
    /// CSR, a compressed section stays compressed.
    pub fn graph(&self) -> io::Result<GraphRepr> {
        if let Some(body) = self.versioned(SECTION_GRAPH, SECTION_GRAPH_VERSION, "graph")? {
            return decode_graph(body).map(GraphRepr::Plain);
        }
        let body = self
            .versioned(
                SECTION_GRAPH_COMPRESSED,
                SECTION_GRAPH_COMPRESSED_VERSION,
                "compressed graph",
            )?
            .ok_or_else(|| invalid_data("snapshot has no graph section"))?;
        decode_cgraph(body).map(GraphRepr::Compressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::io::BufReader;

    #[test]
    fn text_round_trip() {
        let g = generators::gnm(40, 100, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_header_declares_isolated_tail_nodes() {
        let text = "# nodes 5\n0 1\n";
        let g = read_edge_list(&mut BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn text_rejects_garbage() {
        let text = "0 x\n";
        assert!(read_edge_list(&mut BufReader::new(text.as_bytes())).is_err());
        let text = "42\n";
        assert!(read_edge_list(&mut BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn weighted_text_round_trip() {
        let g = WeightedGraph::from_edges(5, &[(0, 1, 7), (1, 2, 1), (2, 3, 40), (0, 4, 2)]);
        let mut buf = Vec::new();
        write_weighted_edge_list(&g, &mut buf).unwrap();
        let g2 = read_weighted_edge_list(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn weighted_text_defaults_and_min_collapse() {
        // Missing third column means weight 1; duplicates keep the min.
        let text = "# nodes 4\n0 1\n1 2 5\n2 1 3\n";
        let g = read_weighted_edge_list(&mut BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.dijkstra(0)[2], 4);
        let bad = "0 1 x\n";
        assert!(read_weighted_edge_list(&mut BufReader::new(bad.as_bytes())).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let g = generators::mesh(13, 7);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        let g2 = load_binary(&buf).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = generators::path(5);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        assert!(load_binary(&buf[..buf.len() - 1]).is_err()); // truncated
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(load_binary(&bad).is_err()); // bad magic
    }

    #[test]
    fn binary_empty_graph() {
        let g = CsrGraph::empty(3);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        assert_eq!(load_binary(&buf).unwrap(), g);
    }

    /// Every proper prefix of a valid snapshot is an `io::Error`, never a
    /// panic — the promise callers rely on when reading partial files.
    #[test]
    fn binary_every_truncation_is_an_error() {
        let g = generators::mesh(5, 4);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let res = load_binary(&buf[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn binary_hostile_header_sizes_error_without_overflow() {
        // Valid magic, then node/arc counts chosen so the naive size
        // computation (n + 1) * 8 + arcs * 4 would overflow usize.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // arcs
        assert!(load_binary(&buf).is_err());
    }

    const TAG_A: u32 = u32::from_le_bytes(*b"AAAA");
    const TAG_B: u32 = u32::from_le_bytes(*b"BBBB");

    #[test]
    fn snapshot_round_trips_with_sections() {
        let g = generators::mesh(6, 9);
        let extra = [
            SectionData {
                tag: TAG_A,
                version: 3,
                payload: vec![1, 2, 3, 4, 5],
            },
            SectionData {
                tag: TAG_B,
                version: 1,
                payload: Vec::new(), // empty payloads are legal
            },
        ];
        let mut buf = Vec::new();
        save_snapshot(&g, &extra, &mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.sections().len(), 3);
        assert_eq!(snap.sections()[0].tag, SECTION_GRAPH);
        assert_eq!(snap.section(TAG_A), Some((3, &[1u8, 2, 3, 4, 5][..])));
        assert_eq!(snap.section(TAG_B), Some((1, &[][..])));
        assert_eq!(snap.section(u32::from_le_bytes(*b"ZZZZ")), None);
        assert_eq!(snap.graph().unwrap(), GraphRepr::Plain(g.clone()));
        // `load_binary` accepts PDEC2 and ignores unknown sections.
        assert_eq!(load_binary(&buf).unwrap(), g);
    }

    #[test]
    fn snapshot_without_extra_sections_round_trips() {
        let g = CsrGraph::empty(4);
        let mut buf = Vec::new();
        save_snapshot(&g, &[], &mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.sections().len(), 1);
        assert_eq!(snap.graph().unwrap(), GraphRepr::Plain(g));
    }

    #[test]
    fn snapshot_parses_pdec1_as_single_graph_section() {
        let g = generators::path(7);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.sections().len(), 1);
        assert_eq!(snap.sections()[0].tag, SECTION_GRAPH);
        assert_eq!(snap.graph().unwrap(), GraphRepr::Plain(g));
    }

    /// Every proper prefix of a sectioned snapshot fails to parse — the
    /// same promise [`binary_every_truncation_is_an_error`] makes for the
    /// base format.
    #[test]
    fn snapshot_every_truncation_is_an_error() {
        let g = generators::mesh(5, 4);
        let extra = [SectionData {
            tag: TAG_A,
            version: 1,
            payload: vec![9; 11],
        }];
        let mut buf = Vec::new();
        save_snapshot(&g, &extra, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let res = Snapshot::parse(&buf[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn snapshot_rejects_hostile_tables() {
        let g = generators::path(3);
        let mut buf = Vec::new();
        save_snapshot(&g, &[], &mut buf).unwrap();

        // Unsupported table version.
        let mut bad = buf.clone();
        bad[6] = 0xFF;
        assert!(Snapshot::parse(&bad).is_err());

        // Zero sections.
        let mut bad = buf.clone();
        bad[10..14].copy_from_slice(&0u32.to_le_bytes());
        assert!(Snapshot::parse(&bad).is_err());

        // Implausible section count (also a table-size overflow probe).
        let mut bad = buf.clone();
        bad[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Snapshot::parse(&bad).is_err());

        // Section offset pointing into the table.
        let mut bad = buf.clone();
        bad[22..30].copy_from_slice(&0u64.to_le_bytes());
        assert!(Snapshot::parse(&bad).is_err());

        // Section length overrunning the file.
        let mut bad = buf.clone();
        bad[30..38].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Snapshot::parse(&bad).is_err());

        // Wrong graph tag → "no graph section".
        let mut bad = buf.clone();
        bad[14..18].copy_from_slice(b"XXXX");
        assert!(Snapshot::parse(&bad).is_err());

        // Unsupported graph section version parses but won't decode.
        let mut bad = buf.clone();
        bad[18..22].copy_from_slice(&7u32.to_le_bytes());
        let snap = Snapshot::parse(&bad).unwrap();
        assert!(snap.graph().is_err());

        // Trailing garbage is rejected, so truncating a longer file back to
        // a "valid" snapshot plus junk cannot succeed.
        let mut bad = buf.clone();
        bad.push(0);
        assert!(Snapshot::parse(&bad).is_err());
    }

    #[test]
    fn compressed_snapshot_round_trips() {
        let g = generators::preferential_attachment(400, 4, 11);
        let repr = GraphRepr::from_csr(g.clone(), Backend::Compressed);
        let extra = [SectionData {
            tag: TAG_A,
            version: 2,
            payload: vec![8, 7, 6],
        }];
        let mut buf = Vec::new();
        save_snapshot_repr(&repr, &extra, &mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.graph_backend(), Backend::Compressed);
        assert_eq!(snap.sections()[0].tag, SECTION_GRAPH_COMPRESSED);
        assert_eq!(snap.section(TAG_A), Some((2, &[8u8, 7, 6][..])));
        // The graph keeps its backend and agrees with the original.
        let loaded = snap.graph().unwrap();
        assert_eq!(loaded.backend(), Backend::Compressed);
        assert_eq!(loaded.to_csr().as_ref(), &g);
        assert_eq!(load_binary(&buf).unwrap(), g);
        // A plain snapshot reports the plain backend through the same API.
        let mut plain_buf = Vec::new();
        save_snapshot_repr(&GraphRepr::Plain(g.clone()), &[], &mut plain_buf).unwrap();
        let plain_snap = Snapshot::parse(&plain_buf).unwrap();
        assert_eq!(plain_snap.graph_backend(), Backend::Plain);
        assert_eq!(plain_snap.graph().unwrap().backend(), Backend::Plain);
        // Compression shows up on disk too.
        assert!(buf.len() < plain_buf.len());
    }

    /// Every proper prefix of a compressed snapshot is an error — the same
    /// promise the plain section makes.
    #[test]
    fn compressed_snapshot_every_truncation_is_an_error() {
        let g = generators::mesh(6, 5);
        let repr = GraphRepr::from_csr(g, Backend::Compressed);
        let mut buf = Vec::new();
        save_snapshot_repr(&repr, &[], &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                Snapshot::parse(&buf[..cut])
                    .and_then(|s| s.graph())
                    .is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Corrupting the record bytes is caught by validation.
        let snap = Snapshot::parse(&buf).unwrap();
        let data_start = snap.sections()[0].offset + 24;
        let mut bad = buf.clone();
        bad[data_start] ^= 0x80; // grow a varint past its record
        let res = Snapshot::parse(&bad).and_then(|s| s.graph());
        assert!(res.is_err());
    }

    #[test]
    fn snapshot_rejects_corrupt_graph_bodies() {
        let g = generators::mesh(4, 4);
        let mut buf = Vec::new();
        save_snapshot(&g, &[], &mut buf).unwrap();
        let graph_off = Snapshot::parse(&buf).unwrap().sections()[0].offset;

        // Out-of-range target: last 4 bytes of the file are the final
        // target word.
        let mut bad = buf.clone();
        let end = bad.len();
        bad[end - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Snapshot::parse(&bad).unwrap().graph().is_err());

        // Non-monotone offsets: clobber the second offset word with a value
        // larger than the arc count.
        let mut bad = buf;
        let o1 = graph_off + 16 + 8;
        bad[o1..o1 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Snapshot::parse(&bad).unwrap().graph().is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary graphs from the workspace families (mirrors the root
        /// proptests' corpus, but kept local so the format property lives
        /// next to the format).
        fn any_graph() -> impl Strategy<Value = CsrGraph> {
            prop_oneof![
                (1usize..10, 1usize..10).prop_map(|(r, c)| generators::mesh(r, c)),
                (0usize..80, 0usize..160, 0u64..1000).prop_map(|(n, m, s)| {
                    generators::gnm(n, m.min(n.saturating_sub(1) * n / 2), s)
                }),
                (2usize..60, 1u64..1000).prop_map(|(n, s)| {
                    generators::preferential_attachment(n.max(4), 3.min(n - 1), s)
                }),
                (0usize..50).prop_map(CsrGraph::empty),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// PDEC1 write → read is the identity on every graph.
            #[test]
            fn binary_snapshot_round_trips(g in any_graph()) {
                let mut buf = Vec::new();
                save_binary(&g, &mut buf).unwrap();
                let g2 = load_binary(&buf).unwrap();
                prop_assert_eq!(&g, &g2);
                // And the re-serialization is byte-identical (canonical form).
                let mut buf2 = Vec::new();
                save_binary(&g2, &mut buf2).unwrap();
                prop_assert_eq!(buf, buf2);
            }

            /// Truncating a valid snapshot anywhere yields an error.
            #[test]
            fn binary_truncation_errors(g in any_graph(), frac in 0.0f64..1.0) {
                let mut buf = Vec::new();
                save_binary(&g, &mut buf).unwrap();
                let cut = ((buf.len() as f64) * frac) as usize;
                prop_assume!(cut < buf.len());
                prop_assert!(load_binary(&buf[..cut]).is_err());
            }

            /// PDEC2 write → parse is the identity on graph and sections
            /// for arbitrary section payloads.
            #[test]
            fn sectioned_snapshot_round_trips(
                g in any_graph(),
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..64), 0..4),
            ) {
                let extra: Vec<SectionData> = payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| SectionData {
                        tag: u32::from_le_bytes([b'T', b'0' + i as u8, b'0', b'0']),
                        version: i as u32,
                        payload: p.clone(),
                    })
                    .collect();
                let mut buf = Vec::new();
                save_snapshot(&g, &extra, &mut buf).unwrap();
                let snap = Snapshot::parse(&buf).unwrap();
                prop_assert_eq!(snap.sections().len(), 1 + extra.len());
                for s in &extra {
                    let (v, p) = snap.section(s.tag).unwrap();
                    prop_assert_eq!(v, s.version);
                    prop_assert_eq!(p, &s.payload[..]);
                }
                prop_assert_eq!(snap.graph().unwrap(), GraphRepr::Plain(g));
            }

            /// Truncating a sectioned snapshot anywhere fails to parse.
            #[test]
            fn sectioned_truncation_errors(g in any_graph(), frac in 0.0f64..1.0) {
                let extra = [SectionData { tag: TAG_A, version: 1, payload: vec![7; 9] }];
                let mut buf = Vec::new();
                save_snapshot(&g, &extra, &mut buf).unwrap();
                let cut = ((buf.len() as f64) * frac) as usize;
                prop_assume!(cut < buf.len());
                prop_assert!(Snapshot::parse(&buf[..cut]).is_err());
            }
        }
    }
}
