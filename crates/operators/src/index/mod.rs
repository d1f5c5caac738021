//! Access structures: the grid, k-d tree, histogram, samplers and
//! cracking index the crate doc's *Index structures* section describes.

pub mod crack;
pub mod grid;
pub mod histogram;
pub mod kdtree;
pub mod sample;
