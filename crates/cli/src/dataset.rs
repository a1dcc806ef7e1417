//! On-disk dataset format: a network plus a series of states, as JSON.
//!
//! The encoder/decoder is hand-rolled (the build environment has no serde):
//! the format is plain JSON — `{"nodes": N, "edges": [[u, v], ...],
//! "states": [[1, 0, -1, ...], ...], "labels": [true, ...], "model":
//! {"family": "ltc", "params": {"threshold": 0.35}}}` — and the parser
//! accepts arbitrary whitespace and field order, so files written by
//! serde-based tools remain readable. The `model` field is optional
//! (datasets predating it still load): `snd simulate` records the
//! simulated model's family and free parameters so `--ground icc|ltc`
//! reprices with the *simulated* parameters instead of family defaults.

use snd_graph::CsrGraph;
use snd_models::NetworkState;

/// The opinion-dynamics model a dataset was simulated under: the family
/// name (matching `snd simulate --list`) plus its free parameters as
/// named finite numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// Model family, e.g. `"voting"`, `"icc"`, `"ltc"`.
    pub family: String,
    /// Named free parameters, e.g. `("threshold", 0.35)`.
    pub params: Vec<(String, f64)>,
}

impl ModelRecord {
    /// Looks up one named parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// Serialized dataset: a graph, a state series, and optional anomaly
/// labels.
#[derive(Debug)]
pub struct Dataset {
    /// Number of users.
    pub nodes: usize,
    /// Directed edges (ties).
    pub edges: Vec<(u32, u32)>,
    /// Opinion series in ±1/0 encoding, one vector per state.
    pub states: Vec<Vec<i8>>,
    /// Per-transition anomaly labels (may be empty).
    pub labels: Vec<bool>,
    /// The dynamics model the series was simulated under, if recorded.
    pub model: Option<ModelRecord>,
}

impl Dataset {
    /// Builds the in-memory graph.
    pub fn graph(&self) -> CsrGraph {
        CsrGraph::from_edges(self.nodes, &self.edges)
    }

    /// Builds the in-memory state series.
    pub fn network_states(&self) -> Vec<NetworkState> {
        self.states
            .iter()
            .map(|v| NetworkState::from_values(v))
            .collect()
    }

    /// Reads a dataset from a JSON file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
    }

    /// Writes the dataset to a JSON file.
    pub fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("writing {path}: {e}"))
    }

    /// Encodes to the JSON wire format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.edges.len() * 10);
        out.push_str("{\"nodes\":");
        out.push_str(&self.nodes.to_string());
        out.push_str(",\"edges\":[");
        for (i, (u, v)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{u},{v}]"));
        }
        out.push_str("],\"states\":[");
        for (i, state) in self.states.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, v) in state.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push(']');
        }
        out.push_str("],\"labels\":[");
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(if *l { "true" } else { "false" });
        }
        out.push(']');
        if let Some(model) = &self.model {
            out.push_str(",\"model\":{\"family\":\"");
            out.push_str(&model.family);
            out.push_str("\",\"params\":{");
            for (i, (k, v)) in model.params.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                // `{}` on a finite f64 is the shortest decimal that parses
                // back to the same bits, so parameters round-trip exactly.
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push_str("}}");
        }
        out.push('}');
        out
    }

    /// Decodes the JSON wire format.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut p = Parser::new(text);
        let mut nodes: Option<usize> = None;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut states: Vec<Vec<i8>> = Vec::new();
        let mut labels: Vec<bool> = Vec::new();
        let mut model: Option<ModelRecord> = None;

        p.expect('{')?;
        if !p.peek_is('}') {
            loop {
                let key = p.string()?;
                p.expect(':')?;
                match key.as_str() {
                    "nodes" => {
                        let v = p.integer()?;
                        nodes =
                            Some(usize::try_from(v).map_err(|_| format!("bad node count {v}"))?);
                    }
                    "edges" => {
                        edges = p.array(|p| {
                            p.expect('[')?;
                            let u = p.integer()?;
                            p.expect(',')?;
                            let v = p.integer()?;
                            p.expect(']')?;
                            let as_node = |x: i64| -> Result<u32, String> {
                                u32::try_from(x).map_err(|_| format!("bad node id {x}"))
                            };
                            Ok((as_node(u)?, as_node(v)?))
                        })?;
                    }
                    "states" => {
                        states = p.array(|p| {
                            p.array(|p| {
                                let v = p.integer()?;
                                // Strict ±1/0 encoding: a stray 2 or -7 is a
                                // corrupt file, not an opinion (downstream
                                // decoding by signum would mask it).
                                match i8::try_from(v) {
                                    Ok(o @ -1..=1) => Ok(o),
                                    _ => Err(format!("bad opinion value {v} (want -1, 0, or 1)")),
                                }
                            })
                        })?;
                    }
                    "labels" => labels = p.array(|p| p.boolean())?,
                    "model" => model = Some(p.model_record()?),
                    other => return Err(format!("unknown field {other:?}")),
                }
                if p.peek_is(',') {
                    p.expect(',')?;
                } else {
                    break;
                }
            }
        }
        p.expect('}')?;
        p.end()?;

        let nodes = nodes.ok_or("missing field \"nodes\"")?;
        if nodes >= u32::MAX as usize {
            return Err(format!("node count {nodes} exceeds the u32 node-id range"));
        }
        for &(u, v) in &edges {
            if u as usize >= nodes || v as usize >= nodes {
                return Err(format!("edge ({u}, {v}) out of range for {nodes} nodes"));
            }
        }
        for s in &states {
            if s.len() != nodes {
                return Err(format!("state of length {} for {nodes} nodes", s.len()));
            }
        }
        // Each state holds `nodes` entries, so the graph built from
        // `nodes` stays bounded by the input's size.
        if states.is_empty() {
            return Err("no states (a dataset needs at least one)".into());
        }
        Ok(Dataset {
            nodes,
            edges,
            states,
            labels,
            model,
        })
    }
}

/// Minimal recursive-descent JSON reader for the dataset's fixed shape.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek_is(&mut self, c: char) -> bool {
        self.skip_ws();
        self.bytes.get(self.pos) == Some(&(c as u8))
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&b) if b == c as u8 => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!(
                "expected {c:?} at byte {}, found {:?}",
                self.pos,
                got.map(|&b| b as char)
            )),
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                if s.contains('\\') {
                    return Err("escaped strings are not supported".into());
                }
                self.pos += 1;
                return Ok(s.to_string());
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    fn integer(&mut self) -> Result<i64, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse()
            .map_err(|_| format!("expected integer at byte {start}"))
    }

    /// JSON number as a finite `f64` (integer, fraction, or exponent
    /// form). Rejects non-finite results — `1e999` overflows to infinity
    /// under `str::parse`, and a non-finite model parameter is a corrupt
    /// file, not a value any dynamics model accepts.
    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(format!("expected finite number at byte {start}")),
        }
    }

    /// The `"model"` object: `{"family": NAME, "params": {KEY: NUM, ...}}`.
    fn model_record(&mut self) -> Result<ModelRecord, String> {
        let mut family: Option<String> = None;
        let mut params: Vec<(String, f64)> = Vec::new();
        self.expect('{')?;
        if !self.peek_is('}') {
            loop {
                let key = self.string()?;
                self.expect(':')?;
                match key.as_str() {
                    "family" => family = Some(self.string()?),
                    "params" => {
                        self.expect('{')?;
                        if !self.peek_is('}') {
                            loop {
                                let name = self.string()?;
                                self.expect(':')?;
                                let value = self.number()?;
                                params.push((name, value));
                                if self.peek_is(',') {
                                    self.expect(',')?;
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect('}')?;
                    }
                    other => return Err(format!("unknown model field {other:?}")),
                }
                if self.peek_is(',') {
                    self.expect(',')?;
                } else {
                    break;
                }
            }
        }
        self.expect('}')?;
        let family = family.ok_or("model record missing field \"family\"")?;
        Ok(ModelRecord { family, params })
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        for (lit, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(value);
            }
        }
        Err(format!("expected boolean at byte {}", self.pos))
    }

    fn array<T>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect('[')?;
        let mut out = Vec::new();
        if self.peek_is(']') {
            self.expect(']')?;
            return Ok(out);
        }
        loop {
            out.push(element(self)?);
            if self.peek_is(',') {
                self.expect(',')?;
            } else {
                break;
            }
        }
        self.expect(']')?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset {
            nodes: 3,
            edges: vec![(0, 1), (1, 2)],
            states: vec![vec![1, 0, -1], vec![0, 0, 1]],
            labels: vec![true],
            model: Some(ModelRecord {
                family: "ltc".into(),
                params: vec![("threshold".into(), 0.35)],
            }),
        }
    }

    #[test]
    fn json_roundtrip() {
        let d = sample();
        let back = Dataset::from_json(&d.to_json()).unwrap();
        assert_eq!(back.nodes, d.nodes);
        assert_eq!(back.edges, d.edges);
        assert_eq!(back.states, d.states);
        assert_eq!(back.labels, d.labels);
        assert_eq!(back.model, d.model);
    }

    #[test]
    fn model_params_roundtrip_exactly() {
        // Awkward but legal f64s survive the decimal round-trip bit-exactly
        // (`{}` prints the shortest representation that parses back to the
        // same value), and exponent notation is accepted on input.
        let mut d = sample();
        d.model = Some(ModelRecord {
            family: "degroot-threshold".into(),
            params: vec![
                ("susceptibility".into(), 0.1 + 0.2),
                ("threshold".into(), 1.0 / 3.0),
                ("tiny".into(), 5e-324),
            ],
        });
        let back = Dataset::from_json(&d.to_json()).unwrap();
        assert_eq!(back.model, d.model);
        let exp = Dataset::from_json(
            r#"{"nodes":1,"states":[[0]],"model":{"family":"icc","params":{"eps":1e-6,"big":2.5E+2}}}"#,
        )
        .unwrap();
        let m = exp.model.unwrap();
        assert_eq!(m.param("eps"), Some(1e-6));
        assert_eq!(m.param("big"), Some(250.0));
        assert_eq!(m.param("absent"), None);
    }

    #[test]
    fn datasets_without_a_model_field_still_load() {
        let text = r#"{"nodes":2,"edges":[[0,1]],"states":[[1,-1]]}"#;
        let d = Dataset::from_json(text).unwrap();
        assert!(d.model.is_none(), "model defaults to unrecorded");
    }

    #[test]
    fn whitespace_and_field_order_are_flexible() {
        let text = r#" { "states" : [ [ 1 , -1 ] ] ,
                        "edges" : [ [ 0 , 1 ] ] , "nodes" : 2 } "#;
        let d = Dataset::from_json(text).unwrap();
        assert_eq!(d.nodes, 2);
        assert_eq!(d.states, vec![vec![1, -1]]);
        assert!(d.labels.is_empty(), "labels default to empty");
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(Dataset::from_json("{").is_err());
        assert!(Dataset::from_json(r#"{"nodes":2,"edges":[[0,5]]}"#).is_err());
        assert!(Dataset::from_json(r#"{"nodes":2,"states":[[1]]}"#).is_err());
        assert!(Dataset::from_json(r#"{"mystery":1}"#).is_err());
        let err = Dataset::from_json(r#"{"nodes":4294967295,"edges":[],"states":[]}"#).unwrap_err();
        assert!(err.contains("u32"), "{err}");
        let err = Dataset::from_json(r#"{"nodes":2,"edges":[],"states":[]}"#).unwrap_err();
        assert!(err.contains("no states"), "{err}");
    }

    #[test]
    fn malformed_input_surfaces_structured_errors_not_panics() {
        // Every bad input must come back as Err with a message, never a
        // panic. Truncations of a valid document exercise every parser
        // state (mid-key, mid-number, mid-array, mid-literal).
        let valid = sample().to_json();
        for cut in 0..valid.len() {
            let truncated = &valid[..cut];
            assert!(
                Dataset::from_json(truncated).is_err(),
                "truncation at byte {cut} must be rejected: {truncated:?}"
            );
        }
        for (name, text) in [
            ("trailing garbage", r#"{"nodes":1} tail"#),
            ("negative node count", r#"{"nodes":-4}"#),
            (
                "overflowing node count",
                r#"{"nodes":99999999999999999999999}"#,
            ),
            ("non-integer nodes", r#"{"nodes":"two"}"#),
            (
                "node count past the u32 id range",
                r#"{"nodes":4294967295,"edges":[],"states":[]}"#,
            ),
            (
                "huge node count without states",
                r#"{"nodes":2000000000,"edges":[],"states":[]}"#,
            ),
            ("opinion out of range", r#"{"nodes":1,"states":[[7]]}"#),
            ("opinion overflows i8", r#"{"nodes":1,"states":[[400]]}"#),
            ("bad boolean literal", r#"{"nodes":1,"labels":[maybe]}"#),
            ("edge missing endpoint", r#"{"nodes":2,"edges":[[0]]}"#),
            ("negative edge endpoint", r#"{"nodes":2,"edges":[[0,-1]]}"#),
            (
                "model missing family",
                r#"{"nodes":1,"model":{"params":{}}}"#,
            ),
            (
                "unknown model field",
                r#"{"nodes":1,"model":{"family":"ltc","mystery":1}}"#,
            ),
            (
                "non-numeric model param",
                r#"{"nodes":1,"model":{"family":"ltc","params":{"threshold":"high"}}}"#,
            ),
            (
                "NaN model param",
                r#"{"nodes":1,"model":{"family":"ltc","params":{"threshold":NaN}}}"#,
            ),
            (
                "overflowing model param",
                r#"{"nodes":1,"model":{"family":"ltc","params":{"threshold":1e999}}}"#,
            ),
            (
                "model params not an object",
                r#"{"nodes":1,"model":{"family":"ltc","params":[0.5]}}"#,
            ),
        ] {
            let err = Dataset::from_json(text).expect_err(name);
            assert!(!err.is_empty(), "{name}: error message must not be empty");
        }
    }

    /// SplitMix64: a fixed-seed generator with no dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Bytes a mutation writes: the characters the format gives meaning
    /// to, and a non-UTF-8 byte. Every fourth mutation writes a random
    /// byte instead.
    const HOSTILE: &[u8] = b"{}[],:\"-+.eE019 tfn\xff";

    /// Parses `bytes` as `Dataset::load` would see them (non-UTF-8
    /// becomes replacement characters) and, on `Ok`, materializes the
    /// graph and the states: every input ends in `Ok` or a non-empty
    /// `Err`, and an `Ok` dataset is bounded by the input's size. Returns
    /// whether it parsed.
    fn parse_bounded(bytes: &[u8]) -> bool {
        let text = String::from_utf8_lossy(bytes);
        match Dataset::from_json(&text) {
            Ok(d) => {
                let size = text.len();
                assert!(d.nodes <= size && d.edges.len() <= size, "{text:?}");
                assert!(d.states.len() * d.nodes <= size, "{text:?}");
                assert_eq!(d.graph().node_count(), d.nodes);
                assert_eq!(d.network_states().len(), d.states.len());
                true
            }
            Err(e) => {
                assert!(!e.is_empty(), "{text:?}");
                false
            }
        }
    }

    /// The seeded mutation fuzz: single-byte replacements, insertions and
    /// deletions, oversized numerals spliced in, and splices of two valid
    /// documents (a prefix of one, a suffix of the other).
    #[test]
    fn mutated_and_spliced_documents_never_panic_or_overallocate() {
        let docs: Vec<Vec<u8>> = [
            sample().to_json(),
            r#" { "states" : [ [ 1 , -1 ] , [0,1] ] , "labels" : [ false ] ,
                  "edges" : [ [ 0 , 1 ] , [ 1 , 0 ] ] , "nodes" : 2 } "#
                .to_string(),
            r#"{"nodes":1,"states":[[0]],"model":{"family":"icc","params":{"eps":1e-6,"big":2.5E+2}}}"#
                .to_string(),
        ]
        .map(String::into_bytes)
        .to_vec();
        let mut rng = SplitMix(0x5eed_da7a);
        let mut parsed = [0usize; 2];
        for round in 0..4_000 {
            let doc = &docs[rng.below(docs.len())];
            let mut bytes = doc.clone();
            let at = rng.below(bytes.len());
            let byte = match round % 4 {
                3 => rng.next() as u8,
                _ => HOSTILE[rng.below(HOSTILE.len())],
            };
            match rng.below(5) {
                0 | 1 => bytes[at] = byte,
                2 => bytes.insert(at, byte),
                3 => {
                    bytes.remove(at);
                }
                _ => {
                    let numeral = [
                        "4294967296",
                        "99999999999999999999999",
                        "-9223372036854775809",
                    ];
                    let numeral = numeral[rng.below(numeral.len())];
                    bytes.splice(at..at, numeral.bytes());
                }
            }
            parsed[0] += usize::from(parse_bounded(&bytes));
        }
        for _ in 0..2_000 {
            let (a, b) = (&docs[rng.below(docs.len())], &docs[rng.below(docs.len())]);
            let spliced = [&a[..rng.below(a.len() + 1)], &b[rng.below(b.len() + 1)..]].concat();
            parsed[1] += usize::from(parse_bounded(&spliced));
        }
        // Both kinds reach valid documents too, not only errors.
        assert!(parsed.iter().all(|&n| n > 0), "{parsed:?}");
    }

    #[test]
    fn graph_and_states_materialize() {
        let d = sample();
        let g = d.graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(d.network_states().len(), 2);
    }
}
