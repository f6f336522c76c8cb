//! The local half of one DDP training step over a sampled minibatch
//! (Algorithm 1 lines 11–13: forward, loss, backward); the engine
//! synchronizes and updates.

use crate::model::Model;
use mgnn_sampling::Block;
use mgnn_tensor::loss::{accuracy, cross_entropy};
use mgnn_tensor::Tensor;

/// Result of one training step on one trainer.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// Mean cross-entropy loss of the minibatch.
    pub loss: f32,
    /// Minibatch training accuracy.
    pub accuracy: f64,
    /// Estimated multiply-accumulates of the step.
    pub macs: f64,
}

/// Local forward+backward: computes the loss gradient and accumulates
/// parameter gradients, *without* the optimizer update (which happens after
/// the cross-trainer allreduce).
pub fn forward_backward(
    model: &mut dyn Model,
    blocks: &[Block],
    input: &Tensor,
    labels: &[u32],
) -> StepStats {
    model.zero_grad();
    let logits = model.forward(blocks, input);
    let (loss, grad) = cross_entropy(&logits, labels);
    let acc = accuracy(&logits, labels);
    model.backward(&grad);
    StepStats {
        loss,
        accuracy: acc,
        macs: model.macs(blocks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sage::SageModel;
    use mgnn_graph::generators::erdos_renyi;
    use mgnn_graph::FeatureStore;
    use mgnn_partition::{build_local_partitions, multilevel_partition};
    use mgnn_sampling::NeighborSampler;

    fn fixture() -> (Vec<Block>, Tensor, Vec<u32>) {
        let g = erdos_renyi(200, 2000, 9);
        let p = multilevel_partition(&g, 2, 9);
        let train: Vec<u32> = (0..200).collect();
        let part = build_local_partitions(&g, &p, &train).remove(0);
        let seeds: Vec<u32> = (0..10).collect();
        let mb = NeighborSampler::new(vec![4, 4], 1).sample(&part, &seeds, 0, 0);
        let feats = FeatureStore::synthesize(&g, 6, 3, 2);
        let input = Tensor::from_vec(
            mb.input_nodes.len(),
            6,
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
    fn step_stats_populated() {
        let (blocks, input, labels) = fixture();
        let mut m = SageModel::new(&[6, 8, 3], 5);
        let stats = forward_backward(&mut m, &blocks, &input, &labels);
        assert!(stats.loss.is_finite() && stats.loss > 0.0);
        assert!((0.0..=1.0).contains(&stats.accuracy));
        assert!(stats.macs > 0.0);
    }
}
