//! # workloads — neural-network model zoo and synthetic data generators
//!
//! The paper evaluates AIM on six networks — ResNet18, MobileNetV2, YOLOv5,
//! ViT, Llama3.2-1B and GPT2 — running on ImageNet, COCO and Wikitext2.
//! Neither the trained checkpoints nor the datasets are available to this
//! reproduction, so this crate substitutes for them: operator-level
//! *specifications* of each network with
//! realistic layer shapes, synthetic weight tensors whose statistics match
//! trained layers of that kind, and synthetic input generators with the
//! activity statistics of images and token streams.
//!
//! * [`operator`] — operator kinds (conv, linear, Q/K/V generation, QKᵀ, SV …)
//!   and per-operator specifications.
//! * [`zoo`] — the six modelled networks as lists of operator specs plus
//!   their baseline quality numbers (for the accuracy proxy).
//! * [`weights`] — deterministic synthetic weight tensors per operator.
//! * [`inputs`] — synthetic feature/token streams and their bit-flip
//!   statistics (image-like inputs are spatially correlated and toggle less;
//!   token embeddings toggle more).
//! * [`dag`] — multi-stage request DAGs (cascades, fan-out/join,
//!   conversational sessions with think-time gaps) layered over the frozen
//!   trace generator without perturbing its draws.
//!
//! # Example
//!
//! ```
//! use workloads::zoo::Model;
//!
//! let resnet = Model::resnet18();
//! assert!(resnet.operators().len() > 15);
//! let weights = resnet.operators()[0].synthetic_weights();
//! assert!(!weights.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dag;
pub mod inputs;
pub mod operator;
pub mod weights;
pub mod zoo;

pub use operator::{OperatorKind, OperatorSpec};
pub use zoo::{Model, ModelFamily};
