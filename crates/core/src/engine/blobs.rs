//! Blob keys and accessors: where each layer's states live in the tiered
//! store, and the helpers that move them in and out of it.

use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::dtype::{decode_f16, decode_f32, f32_le_to_f16_le};
use ratel_tensor::{GptModel, ParamLayer};

use super::RatelEngine;
use crate::error::RatelError;

/// Storage keys for a layer's blobs. Layer ids: 0 = embedding, 1..=L =
/// blocks, L+1 = head.
pub(super) fn master_key(layer: usize) -> String {
    format!("layer{layer}/master")
}
pub(super) fn moments_key(layer: usize) -> String {
    format!("layer{layer}/moments")
}
pub(super) fn p16_key(layer: usize) -> String {
    format!("layer{layer}/p16")
}
/// A layer's P16 held in the host tier for one decode call (see
/// `generate.rs`).
pub(super) fn pinned_key(layer: usize) -> String {
    format!("layer{layer}/p16#pinned")
}
pub(super) fn grad_key(layer: usize) -> String {
    format!("layer{layer}/grad")
}
/// A block's saved activations: the whole blob, or — for a blob that
/// moves in chunks — chunk `c` of it (`block{b}/acts#c`).
pub(super) fn act_key(block: usize, chunk: Option<usize>) -> String {
    match chunk {
        Some(c) => format!("block{block}/acts#{c}"),
        None => format!("block{block}/acts"),
    }
}
pub(super) fn ckpt_key(layer: usize) -> String {
    format!("layer{layer}/ckpt")
}
pub(super) fn accum_key(layer: usize) -> String {
    format!("layer{layer}/grad-accum")
}

/// Layer `layer` of the model skeleton (0 = embedding, 1..=L = blocks,
/// L+1 = head).
pub(super) fn layer_of(model: &GptModel, layer: usize) -> &dyn ParamLayer {
    match layer.checked_sub(1) {
        None => &model.embedding,
        Some(b) if b < model.blocks.len() => &model.blocks[b],
        Some(_) => &model.head,
    }
}

fn layer_of_mut(model: &mut GptModel, layer: usize) -> &mut dyn ParamLayer {
    match layer.checked_sub(1) {
        None => &mut model.embedding,
        Some(b) if b < model.blocks.len() => &mut model.blocks[b],
        Some(_) => &mut model.head,
    }
}

/// Takes the staged P16 copy `staged` out of the store and decodes it
/// straight into layer `layer` of the skeleton — the one way parameters
/// reach the compute kernels, in a step and in eval/decode alike.
pub(super) fn load_staged_params(
    store: &TieredStore,
    model: &mut GptModel,
    layer: usize,
    staged: &str,
) -> Result<(), StorageError> {
    let p16 = store.take(staged)?;
    layer_of_mut(model, layer).set_params_f16_le(&p16);
    Ok(())
}

/// Stores an f16 blob in the GPU tier and swaps it to `target`.
pub(super) fn offload_f16(
    store: &TieredStore,
    key: &str,
    bytes: Vec<u8>,
    target: Tier,
) -> Result<(), StorageError> {
    store.put(key, Tier::Gpu, bytes)?;
    store.move_to(key, target)?;
    Ok(())
}

/// Fetches an f16 blob back to the GPU tier and takes it out of the
/// store, returning the bytes.
pub(super) fn fetch_f16(store: &TieredStore, key: &str) -> Result<Vec<u8>, StorageError> {
    store.move_to(key, Tier::Gpu)?;
    store.take(key)
}

impl RatelEngine {
    /// Places every layer's states on the SSD tier, one layer at a time:
    /// the build holds one layer's 14 B/param beside the skeleton, never
    /// the whole model's, and each layer's three blobs stream out as one
    /// sequential segment write.
    pub(super) fn init_states(&self) -> Result<(), StorageError> {
        for layer in 0..self.layer_count() {
            let master = layer_of(&self.model, layer).params_f32_le();
            // P16 is what the GPU computes with: the f16 rounding of the
            // master, exactly what the optimizer will emit after steps.
            let p16 = f32_le_to_f16_le(&master);
            // Fresh Adam moments: `[m..., v...]`, all zero.
            let moments = vec![0u8; master.len() * 2];
            self.store.put_batch(
                Tier::Ssd,
                vec![
                    (master_key(layer), master),
                    (moments_key(layer), moments),
                    (p16_key(layer), p16),
                ],
            )?;
        }
        Ok(())
    }

    /// Copies a layer's P16 blob into the GPU arena and loads it into the
    /// layer skeleton (read-only streaming). The bytes come from the
    /// layer's pinned host copy while a decode call holds one, from the
    /// SSD tier otherwise.
    pub(super) fn stage_params(&mut self, layer: usize) -> Result<(), StorageError> {
        let pinned = pinned_key(layer);
        let key = if self.store.contains(&pinned) {
            pinned
        } else {
            p16_key(layer)
        };
        let staged = format!("{}#staged", p16_key(layer));
        self.store.copy_to(&key, &staged, Tier::Gpu)?;
        load_staged_params(&self.store, &mut self.model, layer, &staged)
    }

    /// Reads the current master (f32) parameters of a layer — for tests
    /// and checkpoint export.
    pub fn master_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f32(&self.store.read(&master_key(layer))?))
    }

    /// Reads the current P16 compute copy of a layer (decoded to f32).
    pub fn p16_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f16(&self.store.read(&p16_key(layer))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    #[test]
    fn model_states_live_on_the_ssd_tier() {
        let config = EngineConfig::tiny();
        let engine = RatelEngine::new(config).unwrap();
        let params = engine.total_params() as u64;
        // P32 (4) + OS32 (8) + P16 (2) = 14 bytes/param at rest.
        assert_eq!(engine.ssd_state_bytes(), params * 14);
        assert_eq!(engine.store().used(Tier::Gpu), 0);
        assert_eq!(engine.store().used(Tier::Host), 0);
    }
}
