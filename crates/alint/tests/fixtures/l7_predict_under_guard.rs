//! L7 fixture: a GP posterior predict under a shard guard. Linted beside
//! the real `crates/gp/src/gp.rs`, whose `predict` reaches the tiled
//! forward solve.

pub struct Store {
    shard: Mutex<GpModel>,
}

impl Store {
    pub fn predict_under_guard(&self, xs: &Matrix) -> Prediction {
        let model = self.shard.lock();
        model.predict(xs)
    }
}
