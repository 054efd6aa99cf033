//! The differential kernel suite of `matmul_kernels.rs` once more, with
//! the portable rendering forced for every test (its `lock()` helper keys
//! on the module path): on an AVX2 host the plain run only ever executes
//! the 256-bit instantiations of the kernel bodies, and the baseline ones
//! are the reference everything else is promised bit-identical to.

#[path = "matmul_kernels.rs"]
mod suite;
