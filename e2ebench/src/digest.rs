//! Output verification: every `repro` stdout and every served body is
//! checked against the digest recorded from the seed commit, and
//! `/metrics` must parse as Prometheus text.

use std::collections::BTreeMap;

/// The digests recorded from the seed commit's `repro` stdout, one line
/// per command: `<len> <fnv1a-64 hex> <repro arguments>`.
const RECORDED: &str = include_str!("../digests.txt");

/// FNV-1a, 64-bit. Each step `h = (h ^ byte) * prime` is a bijection on
/// `h` for a fixed byte, so two inputs of equal length that differ in
/// one byte always end in different states; the length is kept beside
/// the hash to catch insertions and deletions.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Length and hash of one expected output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Byte length.
    pub len: usize,
    /// [`fnv1a64`] of the bytes.
    pub hash: u64,
}

impl Digest {
    /// The digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Self {
        Digest {
            len: bytes.len(),
            hash: fnv1a64(bytes),
        }
    }
}

/// Expected outputs keyed by the `repro` arguments that produce them.
#[derive(Debug, Clone, Default)]
pub struct DigestTable(BTreeMap<String, Digest>);

impl DigestTable {
    /// The table recorded beside this file.
    pub fn recorded() -> Result<Self, String> {
        Self::parse(RECORDED)
    }

    /// Parses `<len> <hex> <key...>` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut table = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (Some(len), Some(hash), Some(key)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "digest line {}: expected `<len> <hash> <key>`",
                    i + 1
                ));
            };
            let len = len
                .parse()
                .map_err(|e| format!("digest line {}: {e}", i + 1))?;
            let hash =
                u64::from_str_radix(hash, 16).map_err(|e| format!("digest line {}: {e}", i + 1))?;
            table.insert(key.to_string(), Digest { len, hash });
        }
        if table.is_empty() {
            return Err("no digests recorded".into());
        }
        Ok(DigestTable(table))
    }

    /// Renders the table in the format [`DigestTable::parse`] reads.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(key, d)| format!("{} {:016x} {key}\n", d.len, d.hash))
            .collect()
    }

    /// Records the digest of `bytes` under `key`.
    pub fn insert(&mut self, key: &str, bytes: &[u8]) {
        self.0.insert(key.to_string(), Digest::of(bytes));
    }

    /// Checks `bytes` against the digest recorded for `key`.
    pub fn check(&self, key: &str, bytes: &[u8]) -> Result<(), String> {
        let want = self
            .0
            .get(key)
            .ok_or_else(|| format!("no digest recorded for {key:?}"))?;
        let got = Digest::of(bytes);
        if got == *want {
            Ok(())
        } else {
            Err(format!(
                "{key:?}: got {} bytes {:016x}, expected {} bytes {:016x}",
                got.len, got.hash, want.len, want.hash
            ))
        }
    }
}

/// Parses a Prometheus text exposition into `series -> value`, where
/// the series is the metric name with its label set. Every line must be
/// a `#` comment or a `name[{labels}] value` sample with a finite or
/// `+Inf` value; an exposition may be empty (a process that recorded
/// nothing).
pub fn prometheus(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut samples = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample without a value: {line:?}"))?;
        let name = series.split('{').next().unwrap_or_default();
        let name_ok = name.chars().enumerate().all(|(i, c)| {
            c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
        });
        if name.is_empty() || !name_ok || (series.contains('{') && !series.ends_with('}')) {
            return Err(format!("bad series name: {line:?}"));
        }
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("bad sample value: {line:?}"))?,
        };
        if value.is_nan() {
            return Err(format!("NaN sample: {line:?}"));
        }
        samples.insert(series.to_string(), value);
    }
    Ok(samples)
}

/// The samples of an exposition that must repeat exactly between runs
/// of the same work: everything except timing families, whose names
/// carry a time unit (see `ucore_obs::is_timing_metric`).
pub fn exact_counts(samples: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    samples
        .iter()
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap_or_default();
            let family = ["_bucket", "_count", "_sum"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .unwrap_or(name);
            !ucore_obs::is_timing_metric(family) && !ucore_obs::is_timing_metric(name)
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_check_rejects_a_one_byte_change() {
        let body = b"speedup,n40,0.5\n1.25,2.5\n".to_vec();
        let mut table = DigestTable::default();
        table.insert("--csv figure-6", &body);
        assert!(table.check("--csv figure-6", &body).is_ok());
        for i in 0..body.len() {
            let mut flipped = body.clone();
            flipped[i] ^= 0x01;
            assert!(table.check("--csv figure-6", &flipped).is_err(), "byte {i}");
        }
        assert!(table.check("--csv figure-6", &body[1..]).is_err());
        assert!(table.check("--csv figure-7", &body).is_err());
    }

    #[test]
    fn digest_table_round_trips_and_the_recorded_one_parses() {
        let mut table = DigestTable::default();
        table.insert("--table 5", b"abc");
        table.insert("healthz", b"ok\n");
        let again = DigestTable::parse(&table.render()).expect("parses");
        assert!(again.check("--table 5", b"abc").is_ok());
        assert!(again.check("healthz", b"ok\n").is_ok());
        let recorded = DigestTable::recorded().expect("recorded digests parse");
        assert!(recorded.check("healthz", b"ok\n").is_ok());
    }

    #[test]
    fn prometheus_text_is_validated() {
        let text = "# TYPE a counter\na 3\nb_bucket{le=\"+Inf\"} 2\nc_us_sum 1.5\n";
        let s = prometheus(text).expect("valid");
        assert_eq!(s["a"], 3.0);
        assert_eq!(s["b_bucket{le=\"+Inf\"}"], 2.0);
        let exact = exact_counts(&s);
        assert!(exact.contains_key("a") && !exact.contains_key("c_us_sum"));
        assert!(prometheus("a\n").is_err());
        assert!(prometheus("a x\n").is_err());
        assert!(prometheus("9a 1\n").is_err());
        assert!(prometheus("# only comments\n").expect("valid").is_empty());
    }
}
