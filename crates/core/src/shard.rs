//! Deterministic corpus sharding for the scatter-gather serving tier.
//!
//! A [`ShardPlan`] is the contract between the `shard-plan` tool (which
//! splits one corpus into per-shard stores) and the router (which must
//! translate per-shard result ids back into the ids a single-node search
//! over the union corpus would have reported). Both sharding schemes are
//! **monotone** maps from shard-local id to global id, so a shard's
//! `(distance, local_id)`-ordered results are already in
//! `(distance, global_id)` order after translation, and the router's
//! k-way merge by `(distance, global id)` reproduces the single-node
//! ordering bit for bit (see `cbir_index`'s documented tie-break rule).
//!
//! The plan is persisted as a small line-based text file (magic
//! `CBIRPLAN1`) next to the per-shard stores, so every process in a
//! deployment — splitter, backends, router, operators — agrees on the
//! same id arithmetic without having to open any shard's data.

use crate::database::{ImageDatabase, ImageMeta};
use crate::error::{CoreError, Result};
use std::fmt;
use std::path::Path;

/// How global row ids are distributed across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardScheme {
    /// Round-robin by id: global id `g` lives on shard `g % shards` at
    /// local id `g / shards`. This is the "hash" scheme — the id is
    /// already an opaque dense key, so modulo is a perfect spreading hash
    /// for it — and it keeps every shard within one row of the same size
    /// no matter how the corpus grew.
    Mod,
    /// Contiguous ranges: shard `s` holds global ids
    /// `[base(s), base(s) + rows(s))`. Range sharding keeps insertion
    /// locality (rows ingested together stay together), which matters
    /// when shard stores are mmap segment directories.
    Range,
}

impl ShardScheme {
    /// Stable name used in the plan file and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ShardScheme::Mod => "mod",
            ShardScheme::Range => "range",
        }
    }

    /// Parse a scheme name (`"mod"` or `"range"`).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "mod" => Ok(ShardScheme::Mod),
            "range" => Ok(ShardScheme::Range),
            other => Err(CoreError::InvalidParameter(format!(
                "unknown shard scheme {other:?} (expected \"mod\" or \"range\")"
            ))),
        }
    }
}

impl fmt::Display for ShardScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Magic first line of a serialized shard plan.
pub const PLAN_MAGIC: &str = "CBIRPLAN1";

/// A deterministic assignment of `total_rows` global ids to `shards()`
/// shards, plus the corpus dimensionality so every consumer can
/// cross-check it is pointed at the right corpus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    scheme: ShardScheme,
    dim: usize,
    total_rows: u64,
    /// Rows per shard; for `Range` the bases are the prefix sums.
    rows: Vec<u64>,
}

impl ShardPlan {
    /// Plan a split of `total_rows` rows of dimension `dim` into
    /// `shards` shards under `scheme`. Row counts are fixed by the
    /// scheme: `Mod` assigns id `g` to shard `g % shards`; `Range` gives
    /// every shard `⌈remaining/shards_left⌉` rows (so sizes differ by at
    /// most one and earlier shards are the larger ones).
    pub fn new(scheme: ShardScheme, dim: usize, total_rows: u64, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(CoreError::InvalidParameter(
                "a shard plan needs >= 1 shard".into(),
            ));
        }
        if dim == 0 {
            return Err(CoreError::InvalidParameter(
                "a shard plan needs dim >= 1".into(),
            ));
        }
        let n = shards as u64;
        let rows = (0..n)
            .map(|s| match scheme {
                // Ids s, s+n, s+2n, …: count of multiples below total.
                ShardScheme::Mod => (total_rows.saturating_sub(s).saturating_add(n - 1)) / n,
                ShardScheme::Range => total_rows / n + u64::from(s < total_rows % n),
            })
            .collect();
        Ok(ShardPlan {
            scheme,
            dim,
            total_rows,
            rows,
        })
    }

    /// The sharding scheme.
    pub fn scheme(&self) -> ShardScheme {
        self.scheme
    }

    /// Descriptor dimensionality of the corpus the plan was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total rows across all shards.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.rows.len()
    }

    /// Rows held by shard `shard`.
    pub fn rows_of(&self, shard: usize) -> u64 {
        self.rows[shard]
    }

    /// First global id of shard `shard` under the `Range` scheme (prefix
    /// sum of earlier shards' rows).
    fn base_of(&self, shard: usize) -> u64 {
        self.rows[..shard].iter().sum()
    }

    /// Translate a global id into `(shard, local id)`.
    pub fn to_local(&self, g: u64) -> Result<(usize, u64)> {
        if g >= self.total_rows {
            return Err(CoreError::NotFound(g as usize));
        }
        let n = self.rows.len() as u64;
        match self.scheme {
            ShardScheme::Mod => Ok(((g % n) as usize, g / n)),
            ShardScheme::Range => {
                let mut base = 0u64;
                for (s, &rows) in self.rows.iter().enumerate() {
                    if g < base + rows {
                        return Ok((s, g - base));
                    }
                    base += rows;
                }
                // Unreachable: g < total_rows = sum(rows).
                Err(CoreError::NotFound(g as usize))
            }
        }
    }

    /// Translate a shard-local id back into the global id. This map is
    /// strictly increasing in `local` for every shard under both schemes
    /// — the property the router's bit-identity merge relies on.
    pub fn to_global(&self, shard: usize, local: u64) -> Result<u64> {
        if shard >= self.rows.len() || local >= self.rows[shard] {
            return Err(CoreError::InvalidParameter(format!(
                "local id {local} out of range for shard {shard}"
            )));
        }
        Ok(match self.scheme {
            ShardScheme::Mod => local * self.rows.len() as u64 + shard as u64,
            ShardScheme::Range => self.base_of(shard) + local,
        })
    }

    /// Serialize the plan as its line-based text format.
    ///
    /// ```text
    /// CBIRPLAN1
    /// scheme mod
    /// dim 64
    /// rows 1000
    /// shards 4
    /// shard 0 rows 250
    /// …
    /// ```
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{PLAN_MAGIC}\nscheme {}\ndim {}\nrows {}\nshards {}\n",
            self.scheme,
            self.dim,
            self.total_rows,
            self.rows.len()
        );
        for (s, rows) in self.rows.iter().enumerate() {
            out.push_str(&format!("shard {s} rows {rows}\n"));
        }
        out
    }

    /// Parse a plan from its text format, validating magic, field order,
    /// shard count, and that per-shard rows sum to the declared total.
    pub fn parse(text: &str) -> Result<Self> {
        fn bad(detail: impl Into<String>) -> CoreError {
            CoreError::InvalidParameter(format!("shard plan: {}", detail.into()))
        }
        let mut lines = text.lines();
        let magic = lines.next().ok_or_else(|| bad("empty file"))?;
        if magic.trim_end() != PLAN_MAGIC {
            return Err(bad(format!("bad magic {magic:?} (expected {PLAN_MAGIC})")));
        }
        let mut field = |name: &str| -> Result<String> {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("missing {name} line")))?;
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(|v| v.trim_end().to_string())
                .ok_or_else(|| bad(format!("expected {name:?} line, got {line:?}")))
        };
        let scheme = ShardScheme::parse(&field("scheme")?)?;
        let dim: usize = field("dim")?
            .parse()
            .map_err(|_| bad("dim is not an integer"))?;
        let total_rows: u64 = field("rows")?
            .parse()
            .map_err(|_| bad("rows is not an integer"))?;
        let shards: usize = field("shards")?
            .parse()
            .map_err(|_| bad("shards is not an integer"))?;
        if shards == 0 {
            return Err(bad("plan declares 0 shards"));
        }
        let mut rows = Vec::with_capacity(shards);
        for s in 0..shards {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("missing line for shard {s}")))?;
            let mut parts = line.split_whitespace();
            let ok = parts.next() == Some("shard")
                && parts.next() == Some(&s.to_string())
                && parts.next() == Some("rows");
            let n: Option<u64> = parts.next().and_then(|v| v.parse().ok());
            match (ok, n, parts.next()) {
                (true, Some(n), None) => rows.push(n),
                _ => return Err(bad(format!("bad shard line {line:?}"))),
            }
        }
        if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
            return Err(bad(format!("trailing content {extra:?}")));
        }
        let plan = ShardPlan {
            scheme,
            dim,
            total_rows,
            rows,
        };
        if plan.rows.iter().sum::<u64>() != total_rows {
            return Err(bad("per-shard rows do not sum to the declared total"));
        }
        // The declared per-shard rows must be exactly what the scheme
        // produces — the router derives id arithmetic from them.
        if plan != ShardPlan::new(scheme, dim, total_rows, shards)? {
            return Err(bad("per-shard rows are inconsistent with the scheme"));
        }
        Ok(plan)
    }

    /// Write the plan to `path` (atomic temp-sibling rename, like every
    /// other persistence artifact).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        crate::persist::write_file_atomic(
            path.as_ref(),
            self.encode().as_bytes(),
            &mut crate::faults::NoFaults,
        )
    }

    /// Load a plan from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(CoreError::Io)?;
        let text = std::str::from_utf8(&bytes).map_err(|_| {
            CoreError::InvalidParameter(format!("shard plan {}: not UTF-8", path.display()))
        })?;
        Self::parse(text)
    }
}

/// Split `db` into per-shard databases under `plan`. Shard `s`'s local id
/// `l` receives the row at global id `plan.to_global(s, l)`; descriptors
/// are copied bit-for-bit, so a shard backend computes exactly the
/// distances the single-node engine would.
pub fn split_database(db: &ImageDatabase, plan: &ShardPlan) -> Result<Vec<ImageDatabase>> {
    if db.len() as u64 != plan.total_rows() {
        return Err(CoreError::InvalidParameter(format!(
            "plan covers {} rows but the database has {}",
            plan.total_rows(),
            db.len()
        )));
    }
    if db.dim() != plan.dim() {
        return Err(CoreError::InvalidParameter(format!(
            "plan dim {} != database dim {}",
            plan.dim(),
            db.dim()
        )));
    }
    let dim = db.dim();
    let flat = db.flat_descriptors();
    let metas = db.metas();
    (0..plan.shards())
        .map(|s| {
            let rows = plan.rows_of(s);
            let mut descriptors = Vec::with_capacity(rows as usize * dim);
            let mut shard_metas = Vec::with_capacity(rows as usize);
            for l in 0..rows {
                let g = plan.to_global(s, l)? as usize;
                descriptors.extend_from_slice(&flat[g * dim..(g + 1) * dim]);
                shard_metas.push(metas[g].clone());
            }
            ImageDatabase::from_parts(
                db.pipeline().clone(),
                db.is_balanced(),
                descriptors,
                shard_metas,
            )
        })
        .collect()
}

/// Reassemble the union database from per-shard databases (the inverse of
/// [`split_database`]): row `g` of the result is row `l` of shard `s`
/// where `(s, l) = plan.to_local(g)`. Used to verify a split and to
/// migrate a sharded deployment back to one node.
pub fn merge_shards(shards: &[ImageDatabase], plan: &ShardPlan) -> Result<ImageDatabase> {
    if shards.len() != plan.shards() {
        return Err(CoreError::InvalidParameter(format!(
            "plan declares {} shards but {} databases were given",
            plan.shards(),
            shards.len()
        )));
    }
    for (s, db) in shards.iter().enumerate() {
        if db.len() as u64 != plan.rows_of(s) {
            return Err(CoreError::InvalidParameter(format!(
                "shard {s} has {} rows, plan declares {}",
                db.len(),
                plan.rows_of(s)
            )));
        }
        if db.dim() != plan.dim() {
            return Err(CoreError::InvalidParameter(format!(
                "shard {s} dim {} != plan dim {}",
                db.dim(),
                plan.dim()
            )));
        }
    }
    let dim = plan.dim();
    let total = plan.total_rows() as usize;
    let mut descriptors = Vec::with_capacity(total * dim);
    let mut metas: Vec<ImageMeta> = Vec::with_capacity(total);
    for g in 0..plan.total_rows() {
        let (s, l) = plan.to_local(g)?;
        let l = l as usize;
        descriptors.extend_from_slice(&shards[s].flat_descriptors()[l * dim..(l + 1) * dim]);
        metas.push(shards[s].metas()[l].clone());
    }
    let pipeline = shards[0].pipeline().clone();
    let balanced = shards[0].is_balanced();
    ImageDatabase::from_parts(pipeline, balanced, descriptors, metas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_features::Pipeline;

    fn db(n: usize) -> ImageDatabase {
        let pipeline = Pipeline::color_histogram_default();
        let dim = pipeline.dim();
        let mut descriptors = Vec::with_capacity(n * dim);
        let mut metas = Vec::with_capacity(n);
        for g in 0..n {
            // Distinct, deterministic rows so misplaced ids are caught.
            descriptors.extend((0..dim).map(|c| (g * dim + c) as f32 * 0.5));
            metas.push(ImageMeta {
                name: format!("img-{g}"),
                label: Some((g % 7) as u32),
            });
        }
        ImageDatabase::from_parts(pipeline, false, descriptors, metas).unwrap()
    }

    #[test]
    fn mapping_is_a_bijection_under_both_schemes() {
        for scheme in [ShardScheme::Mod, ShardScheme::Range] {
            for (total, shards) in [(0u64, 3usize), (1, 4), (10, 3), (12, 4), (2, 5)] {
                let plan = ShardPlan::new(scheme, 8, total, shards).unwrap();
                assert_eq!(plan.rows.iter().sum::<u64>(), total, "{scheme} {total}");
                let mut seen = vec![false; total as usize];
                for s in 0..shards {
                    let mut prev = None;
                    for l in 0..plan.rows_of(s) {
                        let g = plan.to_global(s, l).unwrap();
                        assert_eq!(plan.to_local(g).unwrap(), (s, l));
                        // Monotone: local order == global order per shard.
                        assert!(prev.is_none_or(|p| p < g));
                        prev = Some(g);
                        assert!(!seen[g as usize]);
                        seen[g as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&x| x));
            }
        }
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let plan = ShardPlan::new(ShardScheme::Mod, 8, 10, 3).unwrap();
        assert!(plan.to_local(10).is_err());
        assert!(plan.to_global(3, 0).is_err());
        assert!(plan.to_global(0, plan.rows_of(0)).is_err());
        assert!(ShardPlan::new(ShardScheme::Mod, 8, 10, 0).is_err());
        assert!(ShardPlan::new(ShardScheme::Mod, 0, 10, 2).is_err());
    }

    #[test]
    fn plan_text_round_trips_and_rejects_corruption() {
        for scheme in [ShardScheme::Mod, ShardScheme::Range] {
            let plan = ShardPlan::new(scheme, 32, 1001, 4).unwrap();
            let text = plan.encode();
            assert!(text.starts_with("CBIRPLAN1\n"));
            assert_eq!(ShardPlan::parse(&text).unwrap(), plan);
        }
        let good = ShardPlan::new(ShardScheme::Range, 32, 100, 2)
            .unwrap()
            .encode();
        assert!(ShardPlan::parse("").is_err());
        assert!(ShardPlan::parse("NOTAPLAN\n").is_err());
        assert!(ShardPlan::parse(&good.replace("dim 32", "dim x")).is_err());
        assert!(ShardPlan::parse(&good.replace("shards 2", "shards 3")).is_err());
        // Tampered per-shard rows: sum still matches but the scheme's
        // deterministic sizing does not.
        assert!(ShardPlan::parse(
            &good
                .replace("shard 0 rows 50", "shard 0 rows 49")
                .replace("shard 1 rows 50", "shard 1 rows 51")
        )
        .is_err());
        assert!(ShardPlan::parse(&(good.clone() + "extra\n")).is_err());
        assert!(ShardPlan::parse(&(good + "\n\n")).is_ok());
    }

    #[test]
    fn plan_save_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("cbir-shard-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        let plan = ShardPlan::new(ShardScheme::Mod, 16, 77, 3).unwrap();
        plan.save(&path).unwrap();
        assert_eq!(ShardPlan::load(&path).unwrap(), plan);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn split_then_merge_is_bit_identical() {
        let source = db(23);
        for scheme in [ShardScheme::Mod, ShardScheme::Range] {
            for shards in [1usize, 2, 4, 5] {
                let plan =
                    ShardPlan::new(scheme, source.dim(), source.len() as u64, shards).unwrap();
                let parts = split_database(&source, &plan).unwrap();
                assert_eq!(parts.len(), shards);
                for (s, part) in parts.iter().enumerate() {
                    assert_eq!(part.len() as u64, plan.rows_of(s));
                    // Every shard row matches the union row it maps to,
                    // bit for bit.
                    for l in 0..part.len() {
                        let g = plan.to_global(s, l as u64).unwrap() as usize;
                        let a = part.descriptor(l).unwrap();
                        let b = source.descriptor(g).unwrap();
                        assert_eq!(a.len(), b.len());
                        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
                        assert_eq!(part.metas()[l], source.metas()[g]);
                    }
                }
                let merged = merge_shards(&parts, &plan).unwrap();
                assert_eq!(merged.metas(), source.metas());
                assert_eq!(
                    merged
                        .flat_descriptors()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    source
                        .flat_descriptors()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn split_rejects_mismatched_plan() {
        let source = db(10);
        let plan = ShardPlan::new(ShardScheme::Mod, source.dim(), 11, 2).unwrap();
        assert!(split_database(&source, &plan).is_err());
        let plan = ShardPlan::new(ShardScheme::Mod, source.dim() + 1, 10, 2).unwrap();
        assert!(split_database(&source, &plan).is_err());
        let good = ShardPlan::new(ShardScheme::Mod, source.dim(), 10, 2).unwrap();
        let parts = split_database(&source, &good).unwrap();
        assert!(merge_shards(&parts[..1], &good).is_err());
    }
}
