//! The differential kernel suite of `matmul_kernels.rs` once more, with
//! the rendering capped at portable for every test (its `lock()` helper
//! keys on the module path): on a wide host the plain run executes the
//! baseline instantiations of the kernel bodies only where a test loops
//! over the renderings, and they are the reference everything else is
//! promised bit-identical to.

#[path = "matmul_kernels.rs"]
mod suite;
