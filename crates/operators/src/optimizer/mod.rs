//! Access-path selection: the two execution strategies and the learned
//! selector the crate doc's *Access-path selection* section describes.

pub mod learned;
pub mod strategies;
