//! The [`Model`] abstraction: forward/backward over sampled blocks plus
//! flat parameter/gradient views for DDP and the optimizers — implemented
//! once, for a [`Stack`] of any [`Layer`].

use crate::layer::Layer;
use mgnn_sampling::Block;
use mgnn_tensor::Tensor;

/// Which architecture an experiment trains (the paper evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Mean-aggregator GraphSAGE (primary workload, Fig. 6).
    Sage,
    /// 2-head GAT (§V-A4, Fig. 7).
    Gat,
    /// GCN (extension beyond the paper's pair).
    Gcn,
}

/// A trainable GNN over sampled blocks. `Sync` because threads price
/// batches against one shared, untrained instance.
pub trait Model: Send + Sync {
    /// Forward through all layers; `blocks.len()` must equal the layer
    /// count; `input` holds features of `blocks[0]`'s src nodes. Returns
    /// logits on the seed nodes.
    fn forward(&mut self, blocks: &[Block], input: &Tensor) -> Tensor;

    /// Backward from logits gradient; accumulates parameter gradients.
    /// Nothing reads the gradient of `input` — it is data — so the first
    /// layer accumulates its parameters' gradients and stops there.
    fn backward(&mut self, grad_logits: &Tensor);

    /// Zero all parameter gradients.
    fn zero_grad(&mut self);

    /// Total scalar parameter count.
    fn num_params(&self) -> usize;

    /// Copy parameters into a flat buffer (length `num_params`).
    fn write_params(&self, out: &mut [f32]);

    /// Load parameters from a flat buffer.
    fn read_params(&mut self, src: &[f32]);

    /// Copy gradients into a flat buffer.
    fn write_grads(&self, out: &mut [f32]);

    /// Load gradients from a flat buffer (post-allreduce).
    fn read_grads(&mut self, src: &[f32]);

    /// Estimated multiply-accumulates of one forward+backward over
    /// `blocks` — feeds the cost model's `t_ddp`: three times the layers'
    /// forward [`Layer::macs`], i.e. the backward priced at twice the
    /// forward, in every layer, although
    /// [`backward`](Self::backward) skips the first layer's input
    /// gradient: `CostModel`'s MAC rates were calibrated against this
    /// 3 × forward estimate (the Fig. 9 regime, CPU overlap > 0.9, is
    /// `engine::tests::cpu_overlap_better_than_gpu`; with the skipped
    /// pass discounted here it reads below 0.7). Changing it is a
    /// recalibration of the simulated clock, not a saving.
    fn macs(&self, blocks: &[Block]) -> f64;
}

/// Layers applied input to output, ReLU between them and none after the
/// last (logits): the one [`Model`] of this crate. [`SageModel`],
/// [`GatModel`] and [`GcnModel`] are its three instantiations.
///
/// [`SageModel`]: crate::SageModel
/// [`GatModel`]: crate::GatModel
/// [`GcnModel`]: crate::GcnModel
#[derive(Debug, Clone)]
pub struct Stack<L> {
    /// The convolution layers, input to output.
    pub layers: Vec<L>,
}

/// Which of a parameter tensor's two slices a flat buffer carries.
type Pick = for<'a> fn(&'a [f32], &'a [f32]) -> &'a [f32];
type PickMut = for<'a> fn(&'a mut [f32], &'a mut [f32]) -> &'a mut [f32];

impl<L: Layer> Stack<L> {
    /// Every layer's [`Layer::visit`], in order.
    fn visit(&self, visit: &mut dyn FnMut(&[f32], &[f32])) {
        self.layers.iter().for_each(|l| l.visit(visit));
    }

    /// Every layer's [`Layer::visit_mut`], in order.
    fn visit_mut(&mut self, visit: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.layers.iter_mut().for_each(|l| l.visit_mut(visit));
    }

    /// Copies the picked slice of every parameter tensor into `out`.
    fn write_flat(&self, out: &mut [f32], pick: Pick) {
        let mut at = 0;
        self.visit(&mut |p, g| {
            let x = pick(p, g);
            out[at..at + x.len()].copy_from_slice(x);
            at += x.len();
        });
        debug_assert_eq!(at, self.num_params());
    }

    /// Loads the picked slice of every parameter tensor from `src`.
    fn read_flat(&mut self, src: &[f32], pick: PickMut) {
        let mut at = 0;
        self.visit_mut(&mut |p, g| {
            let x = pick(p, g);
            x.copy_from_slice(&src[at..at + x.len()]);
            at += x.len();
        });
    }
}

impl<L: Layer> Model for Stack<L> {
    fn forward(&mut self, blocks: &[Block], input: &Tensor) -> Tensor {
        assert_eq!(blocks.len(), self.layers.len(), "blocks/layers mismatch");
        let n = self.layers.len();
        let mut h: Option<Tensor> = None;
        for (i, (layer, block)) in self.layers.iter_mut().zip(blocks).enumerate() {
            let activate = i + 1 < n;
            h = Some(layer.forward(block, h.as_ref().unwrap_or(input), activate));
        }
        h.expect("a model has at least one layer")
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("a model has at least one layer");
        let mut g = grad_logits.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    fn zero_grad(&mut self) {
        self.visit_mut(&mut |_, g| g.fill(0.0));
    }

    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p, _| n += p.len());
        n
    }

    fn write_params(&self, out: &mut [f32]) {
        self.write_flat(out, |p, _| p);
    }

    fn read_params(&mut self, src: &[f32]) {
        self.read_flat(src, |p, _| p);
    }

    fn write_grads(&self, out: &mut [f32]) {
        self.write_flat(out, |_, g| g);
    }

    fn read_grads(&mut self, src: &[f32]) {
        self.read_flat(src, |_, g| g);
    }

    fn macs(&self, blocks: &[Block]) -> f64 {
        let forward: f64 = self.layers.iter().zip(blocks).map(|(l, b)| l.macs(b)).sum();
        forward * 3.0 // fwd + bwd(×2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GatModel, GcnModel, SageModel};
    use mgnn_graph::generators::erdos_renyi;
    use mgnn_partition::{build_local_partitions, multilevel_partition};
    use mgnn_sampling::NeighborSampler;
    use mgnn_tensor::loss::cross_entropy;

    fn training_fixture() -> (Vec<Block>, Tensor, Vec<u32>) {
        let g = erdos_renyi(300, 3000, 5);
        let p = multilevel_partition(&g, 2, 5);
        let train: Vec<u32> = (0..300).collect();
        let part = build_local_partitions(&g, &p, &train).remove(0);
        let seeds: Vec<u32> = (0..16.min(part.num_local() as u32)).collect();
        let sampler = NeighborSampler::new(vec![5, 5], 3);
        let mb = sampler.sample(&part, &seeds, 0, 0);
        let feats = mgnn_graph::FeatureStore::synthesize(&g, 8, 3, 1);
        let input = Tensor::from_vec(
            mb.input_nodes.len(),
            8,
            mb.input_nodes
                .iter()
                .flat_map(|&l| feats.row(part.global_id(l)).to_vec())
                .collect(),
        );
        let labels: Vec<u32> = mb
            .seeds
            .iter()
            .map(|&l| feats.label(part.global_id(l)))
            .collect();
        (mb.blocks, input, labels)
    }

    #[test]
    fn sage_end_to_end_loss_decreases() {
        let (blocks, input, labels) = training_fixture();
        let mut model = SageModel::new(&[8, 16, 3], 7);
        let lr = 0.1f32;
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        let np = Model::num_params(&model);
        for it in 0..30 {
            model.zero_grad();
            let logits = Model::forward(&mut model, &blocks, &input);
            let (loss, grad) = cross_entropy(&logits, &labels);
            if it == 0 {
                first = loss;
            }
            last = loss;
            Model::backward(&mut model, &grad);
            let mut params = vec![0.0f32; np];
            let mut grads = vec![0.0f32; np];
            model.write_params(&mut params);
            model.write_grads(&mut grads);
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= lr * g;
            }
            model.read_params(&params);
        }
        assert!(
            last < first * 0.9,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn gat_end_to_end_loss_decreases() {
        let (blocks, input, labels) = training_fixture();
        let mut model = GatModel::new(&[8, 8, 3], 2, 11);
        let lr = 0.05f32;
        let np = Model::num_params(&model);
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for it in 0..30 {
            model.zero_grad();
            let logits = Model::forward(&mut model, &blocks, &input);
            let (loss, grad) = cross_entropy(&logits, &labels);
            if it == 0 {
                first = loss;
            }
            last = loss;
            Model::backward(&mut model, &grad);
            let mut params = vec![0.0f32; np];
            let mut grads = vec![0.0f32; np];
            model.write_params(&mut params);
            model.write_grads(&mut grads);
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= lr * g;
            }
            model.read_params(&params);
        }
        assert!(last < first, "GAT loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn gcn_end_to_end_loss_decreases() {
        let (blocks, input, labels) = training_fixture();
        let mut model = GcnModel::new(&[8, 16, 3], 13);
        let lr = 0.1f32;
        let np = Model::num_params(&model);
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        // GCN's mean-aggregation landscape is flatter than SAGE/GAT's on
        // this fixture; give SGD enough steps that the 5% bar tests the
        // optimizer, not the initialization draw.
        for it in 0..100 {
            model.zero_grad();
            let logits = Model::forward(&mut model, &blocks, &input);
            let (loss, grad) = cross_entropy(&logits, &labels);
            if it == 0 {
                first = loss;
            }
            last = loss;
            Model::backward(&mut model, &grad);
            let mut params = vec![0.0f32; np];
            let mut grads = vec![0.0f32; np];
            model.write_params(&mut params);
            model.write_grads(&mut grads);
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= lr * g;
            }
            model.read_params(&params);
        }
        assert!(
            last < first * 0.95,
            "GCN loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn skipping_the_input_gradient_moves_no_parameter_gradient() {
        // Reference: every layer's full backward, the input's gradient
        // computed and dropped — what `Model::backward` did for layer 0.
        let (blocks, input, labels) = training_fixture();
        fn grad_bits(m: &dyn Model) -> Vec<u32> {
            let mut g = vec![0.0f32; m.num_params()];
            m.write_grads(&mut g);
            g.iter().map(|x| x.to_bits()).collect()
        }
        let logits_grad = |m: &mut dyn Model| {
            m.zero_grad();
            cross_entropy(&m.forward(&blocks, &input), &labels).1
        };

        fn check<L: Layer + Clone>(
            mut model: Stack<L>,
            logits_grad: impl Fn(&mut dyn Model) -> Tensor,
            input: &Tensor,
            what: &str,
        ) {
            let mut full = model.clone();
            let g = logits_grad(&mut model);
            model.backward(&g);
            let mut g = logits_grad(&mut full);
            for layer in full.layers.iter_mut().rev() {
                g = layer.backward(&g);
            }
            assert_eq!(g.shape(), input.shape());
            assert_eq!(grad_bits(&model), grad_bits(&full), "{what}");
        }
        check(SageModel::new(&[8, 16, 3], 7), logits_grad, &input, "sage");
        check(GcnModel::new(&[8, 16, 3], 13), logits_grad, &input, "gcn");
        check(GatModel::new(&[8, 8, 3], 2, 11), logits_grad, &input, "gat");
    }

    #[test]
    fn param_round_trip_both_models() {
        let sage = SageModel::new(&[8, 16, 3], 1);
        let mut buf = vec![0.0f32; Model::num_params(&sage)];
        sage.write_params(&mut buf);
        let mut sage2 = SageModel::new(&[8, 16, 3], 99);
        sage2.read_params(&buf);
        let mut buf2 = vec![0.0f32; buf.len()];
        sage2.write_params(&mut buf2);
        assert_eq!(buf, buf2);

        let gat = GatModel::new(&[8, 8, 3], 2, 1);
        let mut gbuf = vec![0.0f32; Model::num_params(&gat)];
        gat.write_params(&mut gbuf);
        let mut gat2 = GatModel::new(&[8, 8, 3], 2, 77);
        gat2.read_params(&gbuf);
        let mut gbuf2 = vec![0.0f32; gbuf.len()];
        gat2.write_params(&mut gbuf2);
        assert_eq!(gbuf, gbuf2);
    }

    #[test]
    fn macs_positive_and_scale_with_blocks() {
        let (blocks, _, _) = training_fixture();
        let sage = SageModel::new(&[8, 16, 3], 1);
        let m = sage.macs(&blocks);
        assert!(m > 0.0);
        let gat = GatModel::new(&[8, 8, 3], 2, 1);
        assert!(gat.macs(&blocks) > 0.0);
    }
}
