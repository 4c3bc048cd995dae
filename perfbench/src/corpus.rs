//! Workload inputs, generated from the `--seed` argument. The program only
//! ever sees the generated `.c` files.

use sga_cgen::GenConfig;
use sga_utils::Json;
use std::path::Path;

/// SplitMix64: a small, fixed pseudo-random sequence for edit scripts.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The generator shape of one workload's units.
#[derive(Clone, Debug)]
pub struct Shape {
    pub units: usize,
    pub loc: usize,
    pub functions: usize,
    pub globals: usize,
    pub global_ptrs: usize,
    pub max_scc: usize,
    /// Seed of unit 0 under `--seed 0`; seed `s` takes the disjoint block
    /// `base + s * units ..`, so no two seeds share a unit.
    pub base_seed: u64,
}

/// `GenConfig::sized`'s proportions at `loc` lines.
const fn sized(units: usize, loc: usize, base_seed: u64) -> Shape {
    Shape {
        units,
        loc,
        functions: if loc / 25 > 4 { loc / 25 } else { 4 },
        globals: if loc / 90 > 6 { loc / 90 } else { 6 },
        global_ptrs: if loc / 400 > 2 { loc / 400 } else { 2 },
        max_scc: 2,
        base_seed,
    }
}

/// `batch`: the bench corpus of `BENCH_pipeline.json` (`--seed 0` is
/// exactly that corpus, unit seeds 0xFEED + i).
pub const BATCH: Shape = sized(8, 2000, 0xFEED);

/// `recursive`: a 12-function recursion cycle among 40 functions over 30
/// globals and 6 global pointers per unit — large SCCs drive the sparse
/// fixpoint's cost. Many small units rather than a few large ones keep the
/// jobs-2 wall time from hinging on one slow unit.
pub const RECURSIVE: Shape = Shape {
    units: 16,
    loc: 1000,
    functions: 40,
    globals: 30,
    global_ptrs: 6,
    max_scc: 12,
    base_seed: 0x5CC0,
};

/// `serve`: many small units, as an editor session touches them.
pub const SERVE: Shape = sized(16, 500, 0x5E7E);

impl Shape {
    fn config(&self, seed: u64, i: usize) -> GenConfig {
        GenConfig {
            seed: self.base_seed + seed * self.units as u64 + i as u64,
            target_loc: self.loc,
            functions: self.functions,
            globals: self.globals,
            global_ptrs: self.global_ptrs,
            max_scc: self.max_scc,
            ptr_density: 0.2,
            stmts_per_block: 6,
        }
    }

    /// The units of seed `seed`, as `(file name, source)`.
    pub fn generate(&self, seed: u64) -> Vec<(String, String)> {
        (0..self.units)
            .map(|i| {
                (
                    format!("unit{i:03}.c"),
                    sga_cgen::generate(&self.config(seed, i)),
                )
            })
            .collect()
    }

    /// The shape as recorded in the output, so a result can be rechecked.
    pub fn to_json(&self, seed: u64) -> Json {
        Json::obj()
            .with("units", self.units)
            .with("loc", self.loc)
            .with("functions", self.functions)
            .with("globals", self.globals)
            .with("global_ptrs", self.global_ptrs)
            .with("max_scc", self.max_scc)
            .with("ptr_density", 0.2)
            .with("stmts_per_block", 6usize)
            .with("first_unit_seed", self.config(seed, 0).seed as f64)
    }
}

/// Replaces `dir` with a directory holding exactly `units`.
pub fn write_dir(dir: &Path, units: &[(String, String)]) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for (name, source) in units {
        std::fs::write(dir.join(name), source)?;
    }
    Ok(())
}
