//! A cost-model decorator that counts and times every `layer_cost` call
//! reaching the model (the `npu-maestro` layer of the traced run).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use npu_dnn::Layer;
use npu_maestro::{Accelerator, CostModel, LayerCost};

/// Wraps a cost model; answers are the inner model's, bit for bit.
pub struct CountingModel<'m> {
    inner: &'m dyn CostModel,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<'m> CountingModel<'m> {
    /// Decorates `inner`.
    pub fn new(inner: &'m dyn CostModel) -> CountingModel<'m> {
        CountingModel {
            inner,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Calls answered so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host seconds spent inside the inner model so far.
    pub fn busy_s(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl CostModel for CountingModel<'_> {
    fn layer_cost(&self, layer: &Layer, acc: &Accelerator) -> LayerCost {
        let start = Instant::now();
        let cost = self.inner.layer_cost(layer, acc);
        let nanos = start.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through them.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        cost
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
