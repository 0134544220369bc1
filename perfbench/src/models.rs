//! The trained model suite as the benchmark serves it.
//!
//! Training happens once, in `perfbench prepare`, outside every timed
//! run: it runs `Suite::prepare(Scale::Full)` (itself cached under
//! `.suite-cache/`) and writes the five checkpoints to `.perfbench-models/`.
//! A measuring run only loads them, which is what `setup_s` times.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use specinfer_bench::{Scale, Suite};
use specinfer_model::{checkpoint, Transformer};

use crate::workload::Drafters;

/// Where prepared checkpoints live, relative to the checkout root.
const MODEL_DIR: &str = ".perfbench-models";

const FILES: [&str; 5] = [
    "llm.ckpt",
    "ssm.ckpt",
    "boost0.ckpt",
    "boost1.ckpt",
    "boost2.ckpt",
];

/// The loaded suite, shared with the daemon.
#[derive(Debug, Clone)]
pub struct Models {
    /// The LLM.
    pub llm: Arc<Transformer>,
    /// The distilled primary SSM.
    pub ssm: Arc<Transformer>,
    /// The boost-tuned SSM pool.
    pub boost_pool: Vec<Arc<Transformer>>,
}

impl Models {
    /// The SSMs a daemon of this workload holds.
    pub fn drafters(&self, which: Drafters) -> Vec<Arc<Transformer>> {
        match which {
            Drafters::Distilled => vec![Arc::clone(&self.ssm)],
            Drafters::BoostPool => self.boost_pool.iter().map(Arc::clone).collect(),
        }
    }
}

fn path(file: &str) -> PathBuf {
    Path::new(MODEL_DIR).join(file)
}

/// Trains (or loads from `.suite-cache/`) the full suite and writes its
/// checkpoints to `.perfbench-models/`.
pub fn prepare() -> Result<(), String> {
    let suite = Suite::prepare(Scale::Full);
    let mut models = vec![&suite.llm, &suite.ssm];
    models.extend(suite.boost_pool.iter());
    if models.len() != FILES.len() {
        return Err(format!(
            "suite has {} models, expected {}",
            models.len(),
            FILES.len()
        ));
    }
    for (model, file) in models.into_iter().zip(FILES) {
        checkpoint::save(model, &path(file)).map_err(|e| format!("saving {file}: {e}"))?;
    }
    Ok(())
}

/// Loads the prepared checkpoints.
pub fn load() -> Result<Models, String> {
    let mut loaded = Vec::with_capacity(FILES.len());
    for file in FILES {
        let model = checkpoint::load(&path(file))
            .map_err(|e| format!("loading {file} (run `perfbench prepare` first): {e}"))?;
        loaded.push(Arc::new(model));
    }
    let mut it = loaded.into_iter();
    match (it.next(), it.next()) {
        (Some(llm), Some(ssm)) => Ok(Models {
            llm,
            ssm,
            boost_pool: it.collect(),
        }),
        _ => Err("missing checkpoints".into()),
    }
}

/// FNV-1a digest of every weight of the suite, so two runs can show
/// they served the same models.
pub fn digest(models: &Models) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let all = [&models.llm, &models.ssm]
        .into_iter()
        .chain(models.boost_pool.iter());
    for model in all {
        for byte in checkpoint::to_bytes(model).iter() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
