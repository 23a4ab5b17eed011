//! On-disk formats for observations.
//!
//! * **Status matrix** — one line per diffusion process, `n` space-
//!   separated `0`/`1` digits; `#` lines are comments. This is the
//!   interchange format for status-only pipelines (all TENDS needs).
//! * **Observation set** — the status format plus, per process, a
//!   `sources:` line and a `times:` line (with `-` for never-infected), so
//!   cascade-based baselines can be replayed from disk too.

use crate::{DiffusionRecord, NodeColumns, ObservationSet, StatusMatrix, UNINFECTED};
use diffnet_graph::NodeId;
use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from observation parsing.
#[derive(Debug)]
pub enum ObservationIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file declared more records than it contained — the tail was
    /// cut off, e.g. by a crash during a non-atomic write.
    Truncated {
        /// Record count declared in the header comment.
        expected: usize,
        /// Records actually present.
        found: usize,
        /// Byte offset where input ended.
        offset: usize,
    },
}

impl fmt::Display for ObservationIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObservationIoError::Io(e) => write!(f, "observation I/O error: {e}"),
            ObservationIoError::Parse { line, message } => {
                write!(f, "observation parse error at line {line}: {message}")
            }
            ObservationIoError::Truncated {
                expected,
                found,
                offset,
            } => write!(
                f,
                "observation file truncated at byte {offset}: header declares {expected} records, found {found}"
            ),
        }
    }
}

impl std::error::Error for ObservationIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObservationIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ObservationIoError {
    fn from(e: io::Error) -> Self {
        ObservationIoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> ObservationIoError {
    ObservationIoError::Parse {
        line,
        message: message.into(),
    }
}

/// Extracts `(processes, nodes)` from a header comment of the form
/// `# diffnet <kind>: {β} processes x {n} nodes`. Returns `None` for
/// ordinary comments so headerless legacy files keep loading.
fn parse_header_counts(comment: &str, kind: &str) -> Option<(usize, usize)> {
    let rest = comment
        .trim_start_matches('#')
        .trim_start()
        .strip_prefix(kind)?
        .trim_start()
        .strip_prefix(':')?;
    let mut words = rest.split_whitespace();
    let beta: usize = words.next()?.parse().ok()?;
    if words.next()? != "processes" || words.next()? != "x" {
        return None;
    }
    let n: usize = words.next()?.parse().ok()?;
    if words.next()? != "nodes" {
        return None;
    }
    Some((beta, n))
}

/// Writes a status matrix: one `0`/`1` row per process.
pub fn write_status_matrix<W: Write>(m: &StatusMatrix, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "# diffnet status matrix: {} processes x {} nodes",
        m.num_processes(),
        m.num_nodes()
    )?;
    let mut line = String::with_capacity(2 * m.num_nodes());
    for l in 0..m.num_processes() {
        line.clear();
        for i in 0..m.num_nodes() as NodeId {
            if i > 0 {
                line.push(' ');
            }
            line.push(if m.get(l, i) { '1' } else { '0' });
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads a status matrix written by [`write_status_matrix`].
///
/// Bits go straight into packed row words as each line is tokenized, so
/// the only allocation that grows with the input is the result itself.
/// Accepts optional `# diffnet status matrix: {β} processes x {n} nodes`
/// headers and `#` comments; errors are typed: `Io` for read failures and
/// invalid UTF-8, `Parse` for bad tokens and rows whose width disagrees
/// with the header or the first row, `Truncated` (with a byte offset) when
/// the header declares more rows than the input holds.
pub fn read_status_matrix<R: Read>(r: R) -> Result<StatusMatrix, ObservationIoError> {
    let mut words: Vec<u64> = Vec::new();
    // One row's bits, grown as tokens arrive: a hostile header can never
    // size an allocation.
    let mut row: Vec<u64> = Vec::new();
    let mut declared: Option<(usize, usize)> = None;
    let mut width: Option<usize> = None;
    let mut rows = 0usize;
    let mut buf = BufReader::new(r);
    let mut raw = Vec::new();
    let mut offset = 0usize;
    let mut lineno = 0usize;
    loop {
        raw.clear();
        let read = buf.read_until(b'\n', &mut raw)?;
        if read == 0 {
            break;
        }
        offset += read;
        lineno += 1;
        let line = std::str::from_utf8(&raw).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            if declared.is_none() {
                declared = parse_header_counts(t, "diffnet status matrix");
            }
            continue;
        }
        row.clear();
        let found = fill_row(t, lineno, &mut row)?;
        for expected in [declared.map(|(_, n)| n), width].into_iter().flatten() {
            if found != expected {
                return Err(parse_err(
                    lineno,
                    format!("row has {found} entries, expected {expected}"),
                ));
            }
        }
        // `found ≥ 1` (the trimmed line is not empty), so `row` holds
        // exactly the row's ⌈n/64⌉ words.
        width = Some(found);
        words.extend_from_slice(&row);
        rows += 1;
    }
    if let Some((beta, _)) = declared {
        if rows < beta {
            return Err(ObservationIoError::Truncated {
                expected: beta,
                found: rows,
                offset,
            });
        }
    }
    Ok(match width {
        Some(n) => StatusMatrix::from_packed(rows, n, words),
        None => StatusMatrix::new(0, 0),
    })
}

/// Packs one row's `0`/`1` tokens into `row` (token `i` is bit `i`) and
/// returns the token count.
fn fill_row(t: &str, lineno: usize, row: &mut Vec<u64>) -> Result<usize, ObservationIoError> {
    let mut i = 0usize;
    let mut word = 0u64;
    for tok in t.split_whitespace() {
        match tok {
            "0" => {}
            "1" => word |= 1u64 << (i % 64),
            other => return Err(parse_err(lineno, format!("expected 0/1, got {other:?}"))),
        }
        i += 1;
        if i.is_multiple_of(64) {
            row.push(word);
            word = 0;
        }
    }
    if !i.is_multiple_of(64) {
        row.push(word);
    }
    Ok(i)
}

/// Saves a status matrix to a file via an atomic temp-then-rename write.
pub fn save_status_matrix<P: AsRef<Path>>(m: &StatusMatrix, path: P) -> io::Result<()> {
    diffnet_graph::io::save_atomic(path, |w| write_status_matrix(m, w))
}

/// Loads a status matrix from a file.
pub fn load_status_matrix<P: AsRef<Path>>(path: P) -> Result<StatusMatrix, ObservationIoError> {
    read_status_matrix(fs::File::open(path)?)
}

/// Iterates `bytes` line by line, calling `f(lineno, line)` with the
/// 1-based line number and the raw line (newline stripped). Returns the
/// total byte count consumed, for truncation offsets.
fn for_each_line<'a>(
    bytes: &'a [u8],
    mut f: impl FnMut(usize, &'a [u8]) -> Result<(), ObservationIoError>,
) -> Result<usize, ObservationIoError> {
    let mut pos = 0usize;
    let mut lineno = 0usize;
    while pos < bytes.len() {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |k| pos + k + 1);
        lineno += 1;
        let line = bytes[pos..end]
            .strip_suffix(b"\n")
            .unwrap_or(&bytes[pos..end]);
        f(lineno, line)?;
        pos = end;
    }
    Ok(pos)
}

/// Parses a status-matrix file straight into its column-major bitset
/// view, without ever materializing the row-major [`StatusMatrix`] or any
/// per-row buffers.
///
/// Accepts the same format as [`read_status_matrix`] — optional
/// `# diffnet status matrix: …` header, `0`/`1` rows, `#` comments — with
/// the same typed errors (`Parse` for bad tokens / ragged rows,
/// `Truncated` with a byte offset when the header declares more rows than
/// the file holds). Two passes over the bytes: the first learns the shape
/// (header when present, otherwise the first row's width and the row
/// count), the second sets bits directly into the column bitsets, so peak
/// memory is the `n·⌈β/64⌉` words of the result plus the input bytes —
/// which [`load_status_columns`] keeps out of the heap via `mmap(2)`.
/// The result is identical to `read_status_matrix(bytes)?.columns()`.
pub fn read_status_columns(bytes: &[u8]) -> Result<NodeColumns, ObservationIoError> {
    // Pass 1: shape. Mirrors read_status_matrix's header handling (the
    // first matching comment anywhere in the file wins).
    let mut declared: Option<(usize, usize)> = None;
    let mut first_width: Option<usize> = None;
    let mut rows = 0usize;
    let offset = for_each_line(bytes, |lineno, raw| {
        let line = std::str::from_utf8(raw)
            .map_err(|_| parse_err(lineno, "invalid UTF-8 in status matrix"))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            if declared.is_none() {
                declared = parse_header_counts(t, "diffnet status matrix");
            }
        } else {
            if first_width.is_none() {
                first_width = Some(t.split_whitespace().count());
            }
            rows += 1;
        }
        Ok(())
    })?;
    if let Some((beta, _)) = declared {
        if rows < beta {
            return Err(ObservationIoError::Truncated {
                expected: beta,
                found: rows,
                offset,
            });
        }
    }
    let n = declared.map(|(_, n)| n).or(first_width).unwrap_or(0);

    // Pass 2: bits. β is the actual row count (as StatusMatrix::from_rows
    // would make it), so extra rows beyond a declared header still fit.
    let mut cols = NodeColumns::new_empty(rows, n);
    let mut l = 0usize;
    for_each_line(bytes, |lineno, raw| {
        // Validity was proven in pass 1; bad UTF-8 cannot appear now.
        let t = std::str::from_utf8(raw)
            .map_err(|_| parse_err(lineno, "invalid UTF-8 in status matrix"))?
            .trim();
        if t.is_empty() || t.starts_with('#') {
            return Ok(());
        }
        let mut i = 0usize;
        for tok in t.split_whitespace() {
            match tok {
                "0" => {}
                "1" => {
                    if i < n {
                        cols.set_bit(l, i);
                    }
                }
                other => return Err(parse_err(lineno, format!("expected 0/1, got {other:?}"))),
            }
            i += 1;
        }
        if i != n {
            return Err(parse_err(
                lineno,
                format!("row has {i} entries, expected {n}"),
            ));
        }
        l += 1;
        Ok(())
    })?;
    Ok(cols)
}

/// Loads a status matrix from a file directly into its column-major
/// bitset view, memory-mapping the file when possible (see
/// [`crate::mmap::open_bytes`]) so peak heap usage is just the column
/// bitsets — the entry point of the out-of-core reconstruction path.
pub fn load_status_columns<P: AsRef<Path>>(path: P) -> Result<NodeColumns, ObservationIoError> {
    let bytes = crate::mmap::open_bytes(path)?;
    read_status_columns(&bytes)
}

/// Writes a full observation set: per process a `sources:` line and a
/// `times:` line (`-` = never infected).
pub fn write_observations<W: Write>(obs: &ObservationSet, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "# diffnet observations: {} processes x {} nodes",
        obs.num_processes(),
        obs.num_nodes()
    )?;
    writeln!(w, "nodes: {}", obs.num_nodes())?;
    for rec in &obs.records {
        write!(w, "sources:")?;
        for &s in &rec.sources {
            write!(w, " {s}")?;
        }
        writeln!(w)?;
        write!(w, "times:")?;
        for &t in &rec.times {
            if t == UNINFECTED {
                write!(w, " -")?;
            } else {
                write!(w, " {t}")?;
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads an observation set written by [`write_observations`].
pub fn read_observations<R: Read>(r: R) -> Result<ObservationSet, ObservationIoError> {
    let mut n: Option<usize> = None;
    let mut records: Vec<DiffusionRecord> = Vec::new();
    let mut pending_sources: Option<Vec<NodeId>> = None;
    let mut declared: Option<(usize, usize)> = None;
    let mut buf = BufReader::new(r);
    let mut line = String::new();
    let mut offset = 0usize;
    let mut lineno = 0usize;

    loop {
        line.clear();
        let read = buf.read_line(&mut line)?;
        if read == 0 {
            break;
        }
        offset += read;
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            if declared.is_none() {
                declared = parse_header_counts(t, "diffnet observations");
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("nodes:") {
            n = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| parse_err(lineno, "invalid node count"))?,
            );
        } else if let Some(rest) = t.strip_prefix("sources:") {
            if pending_sources.is_some() {
                return Err(parse_err(lineno, "sources line without matching times"));
            }
            let sources: Result<Vec<NodeId>, _> = rest
                .split_whitespace()
                .map(|tok| {
                    tok.parse::<NodeId>()
                        .map_err(|_| parse_err(lineno, format!("invalid source {tok:?}")))
                })
                .collect();
            pending_sources = Some(sources?);
        } else if let Some(rest) = t.strip_prefix("times:") {
            let sources = pending_sources
                .take()
                .ok_or_else(|| parse_err(lineno, "times line without sources"))?;
            let times: Result<Vec<u32>, _> = rest
                .split_whitespace()
                .map(|tok| {
                    if tok == "-" {
                        Ok(UNINFECTED)
                    } else {
                        tok.parse::<u32>()
                            .map_err(|_| parse_err(lineno, format!("invalid time {tok:?}")))
                    }
                })
                .collect();
            let times = times?;
            let expected = n.ok_or_else(|| parse_err(lineno, "missing nodes: header"))?;
            if times.len() != expected {
                return Err(parse_err(
                    lineno,
                    format!("expected {expected} times, got {}", times.len()),
                ));
            }
            records.push(DiffusionRecord { sources, times });
        } else {
            return Err(parse_err(lineno, format!("unrecognized line {t:?}")));
        }
    }
    if pending_sources.is_some() {
        return Err(ObservationIoError::Truncated {
            expected: declared.map_or(records.len() + 1, |(beta, _)| beta),
            found: records.len(),
            offset,
        });
    }
    if let Some((beta, _)) = declared {
        if records.len() < beta {
            return Err(ObservationIoError::Truncated {
                expected: beta,
                found: records.len(),
                offset,
            });
        }
    }

    let n = n.unwrap_or(0);
    let mut statuses = StatusMatrix::new(records.len(), n);
    for (l, rec) in records.iter().enumerate() {
        for i in 0..n as NodeId {
            if rec.infected(i) {
                statuses.set(l, i);
            }
        }
    }
    Ok(ObservationSet::new(statuses, records))
}

/// Saves a full observation set to a file via an atomic temp-then-rename
/// write.
pub fn save_observations<P: AsRef<Path>>(obs: &ObservationSet, path: P) -> io::Result<()> {
    diffnet_graph::io::save_atomic(path, |w| write_observations(obs, w))
}

/// Loads a full observation set from a file.
pub fn load_observations<P: AsRef<Path>>(path: P) -> Result<ObservationSet, ObservationIoError> {
    read_observations(fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The row-of-bools parser [`read_status_matrix`] replaced, kept as its
    /// oracle. Rows narrower or wider than the first row are a `Parse` error
    /// even when they match a header that arrives after it.
    fn read_status_matrix_reference<R: Read>(r: R) -> Result<StatusMatrix, ObservationIoError> {
        let mut rows: Vec<Vec<bool>> = Vec::new();
        let mut declared: Option<(usize, usize)> = None;
        let mut buf = BufReader::new(r);
        let mut line = String::new();
        let mut offset = 0usize;
        let mut lineno = 0usize;
        loop {
            line.clear();
            let read = buf.read_line(&mut line)?;
            if read == 0 {
                break;
            }
            offset += read;
            lineno += 1;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                if declared.is_none() {
                    declared = parse_header_counts(t, "diffnet status matrix");
                }
                continue;
            }
            let row: Result<Vec<bool>, _> = t
                .split_whitespace()
                .map(|tok| match tok {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    other => Err(parse_err(lineno, format!("expected 0/1, got {other:?}"))),
                })
                .collect();
            let row = row?;
            let widths = [declared.map(|(_, n)| n), rows.first().map(Vec::len)];
            for width in widths.into_iter().flatten() {
                if width != row.len() {
                    return Err(parse_err(
                        lineno,
                        format!("row has {} entries, expected {}", row.len(), width),
                    ));
                }
            }
            rows.push(row);
        }
        if let Some((beta, _)) = declared {
            if rows.len() < beta {
                return Err(ObservationIoError::Truncated {
                    expected: beta,
                    found: rows.len(),
                    offset,
                });
            }
        }
        Ok(StatusMatrix::from_rows(&rows))
    }

    /// Equal `Ok` values, or errors of the same variant at the same place.
    fn same_outcome(
        got: &Result<StatusMatrix, ObservationIoError>,
        want: &Result<StatusMatrix, ObservationIoError>,
    ) -> bool {
        use ObservationIoError::*;
        match (got, want) {
            (Ok(a), Ok(b)) => a == b,
            (Err(Io(a)), Err(Io(b))) => a.kind() == b.kind(),
            (Err(Parse { line: a, .. }), Err(Parse { line: b, .. })) => a == b,
            (Err(a @ Truncated { .. }), Err(b @ Truncated { .. })) => {
                a.to_string() == b.to_string()
            }
            _ => false,
        }
    }

    /// Bytes that steer mutations into every parser branch: digits, bad
    /// tokens, ASCII separators (incl. `\x0B`), comments, a UTF-8 no-break
    /// space (Unicode whitespace) and a byte that is never valid UTF-8.
    const MUTATIONS: &[u8] = b"0011 \t\n\r\x0b\x0c#2x\xc2\xa0\xff";

    fn mutated_canonical(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (beta, n) = (rng.gen_range(0usize..6), rng.gen_range(1usize..70));
        let mut m = StatusMatrix::new(beta, n);
        for l in 0..beta {
            for i in 0..n as NodeId {
                if rng.gen_bool(0.4) {
                    m.set(l, i);
                }
            }
        }
        let mut bytes = Vec::new();
        write_status_matrix(&m, &mut bytes).expect("write");
        for _ in 0..rng.gen_range(0usize..4) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            let b = MUTATIONS[rng.gen_range(0..MUTATIONS.len())];
            match rng.gen_range(0u32..4) {
                0 => bytes[at] = b,
                1 => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, b),
                _ => bytes.truncate(at),
            }
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The packed parser agrees with the row-of-bools oracle on bytes
        // with no structure at all...
        #[test]
        fn packed_parser_matches_oracle_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..256)
        ) {
            let got = read_status_matrix(bytes.as_slice());
            let want = read_status_matrix_reference(bytes.as_slice());
            prop_assert!(same_outcome(&got, &want), "{:?} vs {:?}", got, want);
        }

        // ...and on near-valid files, where the shape checks, header
        // handling and truncation offsets matter.
        #[test]
        fn packed_parser_matches_oracle_on_mutated_matrices(seed in any::<u64>()) {
            let bytes = mutated_canonical(seed);
            let got = read_status_matrix(bytes.as_slice());
            let want = read_status_matrix_reference(bytes.as_slice());
            prop_assert!(same_outcome(&got, &want), "{:?} vs {:?}", got, want);
        }
    }

    #[test]
    fn header_after_rows_cannot_change_the_width() {
        // The first row fixes the width; a later header declaring another
        // one makes every following row a typed error, never a panic.
        for text in [
            "0 1\n# diffnet status matrix: 2 processes x 3 nodes\n0 1 0\n",
            "0 1\n# diffnet status matrix: 2 processes x 3 nodes\n0 1\n",
        ] {
            for got in [
                read_status_matrix(text.as_bytes()),
                read_status_matrix_reference(text.as_bytes()),
            ] {
                assert!(
                    matches!(got, Err(ObservationIoError::Parse { line: 3, .. })),
                    "{got:?}"
                );
            }
        }
    }

    #[test]
    fn parsed_matrix_holds_exactly_its_packed_words() {
        let mut m = StatusMatrix::new(300, 65);
        m.set(299, 64);
        let mut bytes = Vec::new();
        write_status_matrix(&m, &mut bytes).expect("write");
        let got = read_status_matrix(bytes.as_slice()).expect("parse");
        assert_eq!(got, m);
        assert_eq!(got.heap_bytes(), 300 * 2 * 8);
    }

    #[test]
    fn unicode_whitespace_separates_tokens() {
        let m = read_status_matrix("1\u{a0}0 1\n".as_bytes()).expect("parse");
        assert_eq!((m.num_processes(), m.num_nodes()), (1, 3));
        assert!(m.get(0, 0) && !m.get(0, 1) && m.get(0, 2));
    }

    fn sample_obs() -> ObservationSet {
        use crate::{EdgeProbs, IcConfig, IndependentCascade};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = diffnet_graph::DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let probs = EdgeProbs::constant(&g, 0.6);
        let mut rng = StdRng::seed_from_u64(9);
        IndependentCascade::new(&g, &probs).observe(
            IcConfig {
                initial_ratio: 0.2,
                num_processes: 12,
            },
            &mut rng,
        )
    }

    #[test]
    fn status_matrix_round_trip() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_status_matrix(&obs.statuses, &mut buf).expect("write");
        let back = read_status_matrix(buf.as_slice()).expect("read");
        assert_eq!(back, obs.statuses);
    }

    #[test]
    fn observations_round_trip() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_observations(&obs, &mut buf).expect("write");
        let back = read_observations(buf.as_slice()).expect("read");
        assert_eq!(back.statuses, obs.statuses);
        assert_eq!(back.records, obs.records);
    }

    #[test]
    fn status_matrix_rejects_bad_token() {
        let err = read_status_matrix("0 1 2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 0/1"));
    }

    #[test]
    fn status_matrix_rejects_ragged_rows() {
        let err = read_status_matrix("0 1\n0 1 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 2"));
    }

    #[test]
    fn observations_reject_times_without_sources() {
        let text = "nodes: 2\ntimes: 0 -\n";
        let err = read_observations(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("without sources"));
    }

    #[test]
    fn observations_reject_wrong_width() {
        let text = "nodes: 3\nsources: 0\ntimes: 0 -\n";
        let err = read_observations(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 3 times"));
    }

    #[test]
    fn truncated_status_matrix_reports_byte_offset() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_status_matrix(&obs.statuses, &mut buf).expect("write");
        // Drop the last row entirely, as a crash at a line boundary would.
        let text = String::from_utf8(buf).expect("utf8");
        let cut = text.trim_end().rfind('\n').expect("multiple lines") + 1;
        match read_status_matrix(&text.as_bytes()[..cut]) {
            Err(ObservationIoError::Truncated {
                expected,
                found,
                offset,
            }) => {
                assert_eq!(expected, obs.num_processes());
                assert_eq!(found, obs.num_processes() - 1);
                assert_eq!(offset, cut);
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn mid_row_truncation_detected_via_declared_width() {
        // Cut inside the final row: the partial row is narrower than the
        // width declared in the header, so the reader refuses it instead
        // of parsing a smaller matrix.
        let text = "# diffnet status matrix: 2 processes x 4 nodes\n0 1 0 1\n1 0\n";
        let err = read_status_matrix(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4"), "got {err}");
    }

    #[test]
    fn truncated_observations_report_byte_offset() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_observations(&obs, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        // Cut after the last sources: line — a dangling record.
        let cut = text.trim_end().rfind('\n').expect("multiple lines") + 1;
        match read_observations(&text.as_bytes()[..cut]) {
            Err(ObservationIoError::Truncated { found, offset, .. }) => {
                assert_eq!(found, obs.num_processes() - 1);
                assert_eq!(offset, cut);
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn legacy_headerless_status_matrix_still_loads() {
        let m = read_status_matrix("0 1\n1 0\n".as_bytes()).expect("parse");
        assert_eq!(m.num_processes(), 2);
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(
            read_status_matrix("".as_bytes())
                .expect("ok")
                .num_processes(),
            0
        );
        let obs = read_observations("".as_bytes()).expect("ok");
        assert_eq!(obs.num_processes(), 0);
    }

    #[test]
    fn streamed_columns_match_dense_columns() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_status_matrix(&obs.statuses, &mut buf).expect("write");
        let streamed = read_status_columns(&buf).expect("streamed parse");
        let dense = read_status_matrix(buf.as_slice()).expect("dense parse");
        assert_eq!(streamed, dense.columns());
    }

    #[test]
    fn streamed_columns_handle_headerless_and_empty() {
        let streamed = read_status_columns(b"0 1\n1 0\n").expect("parse");
        let dense = read_status_matrix("0 1\n1 0\n".as_bytes()).expect("parse");
        assert_eq!(streamed, dense.columns());
        let empty = read_status_columns(b"").expect("parse");
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_processes(), 0);
    }

    #[test]
    fn streamed_columns_report_truncation_with_offset() {
        let text = "# diffnet status matrix: 3 processes x 2 nodes\n0 1\n1 0\n";
        match read_status_columns(text.as_bytes()) {
            Err(ObservationIoError::Truncated {
                expected,
                found,
                offset,
            }) => {
                assert_eq!(expected, 3);
                assert_eq!(found, 2);
                assert_eq!(offset, text.len());
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn streamed_columns_reject_hostile_bytes() {
        // Bad token.
        let err = read_status_columns(b"0 1 2\n").unwrap_err();
        assert!(matches!(err, ObservationIoError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("expected 0/1"));
        // Ragged row against the declared width.
        let text = "# diffnet status matrix: 2 processes x 4 nodes\n0 1 0 1\n1 0\n";
        let err = read_status_columns(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4"), "got {err}");
        // Invalid UTF-8 is a typed parse error, not a panic or io error.
        let err = read_status_columns(&[0x30, 0x20, 0xff, 0xfe, 0x0a]).unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "got {err}");
    }

    #[test]
    fn load_status_columns_reads_mmap_file() {
        let dir = std::env::temp_dir().join("diffnet_sim_io_cols_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let obs = sample_obs();
        let path = dir.join("statuses.txt");
        save_status_matrix(&obs.statuses, &path).expect("save");
        let cols = load_status_columns(&path).expect("load streamed");
        assert_eq!(cols, obs.statuses.columns());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("diffnet_sim_io_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let obs = sample_obs();
        let p1 = dir.join("statuses.txt");
        save_status_matrix(&obs.statuses, &p1).expect("save");
        assert_eq!(load_status_matrix(&p1).expect("load"), obs.statuses);
        let p2 = dir.join("obs.txt");
        save_observations(&obs, &p2).expect("save");
        assert_eq!(load_observations(&p2).expect("load").records, obs.records);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }
}
