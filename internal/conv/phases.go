package conv

import "ucudnn/internal/prof"

// Profiler phases of the conv algorithms. Each kernel run tiles its
// measured time into these windows, so the cost-attribution report can
// answer "is GEMM time im2col-pack or SGEMM?" per layer. Names are
// ucudnn_ph_* constants; prof.Register checks them at init.
const (
	// GEMM algorithm: im2col/col2im patch packing (including the
	// zero/scale passes fused into it) and the deterministic partial-dW
	// reduction of BackwardFilter. The SGEMM itself self-reports
	// ucudnn_ph_sgemm_pack / ucudnn_ph_sgemm_kernel from internal/blas.
	PhGemmIm2col prof.Phase = "ucudnn_ph_gemm_im2col"
	PhGemmReduce prof.Phase = "ucudnn_ph_gemm_reduce"

	// Winograd algorithm: input/filter tile transforms in, the
	// element-wise spectral multiply (a batched GEMM), and the inverse
	// output transform.
	PhWinogradTransformIn  prof.Phase = "ucudnn_ph_winograd_transform_in"
	PhWinogradElementwise  prof.Phase = "ucudnn_ph_winograd_elementwise"
	PhWinogradTransformOut prof.Phase = "ucudnn_ph_winograd_transform_out"

	// FFT algorithm: real-to-complex forward transforms (embed + rfft),
	// the pointwise spectral multiply-accumulate over the stored
	// Hermitian half-spectra, and the complex-to-real inverse transforms
	// (including the final blend into the output tensor).
	PhRFFTForward   prof.Phase = "ucudnn_ph_rfft_forward"
	PhRFFTPointwise prof.Phase = "ucudnn_ph_rfft_pointwise"
	PhRFFTInverse   prof.Phase = "ucudnn_ph_rfft_inverse"

	// Direct algorithm: one main loop.
	PhDirectMain prof.Phase = "ucudnn_ph_direct_main"

	// Implicit-GEMM algorithms: the lowering A/B panel packers (the
	// micro-kernel walk between them reports ucudnn_ph_sgemm_kernel from
	// internal/blas).
	PhImplicitPack prof.Phase = "ucudnn_ph_implicit_pack"
)

var (
	phGemmIm2col = prof.Register(PhGemmIm2col)
	phGemmReduce = prof.Register(PhGemmReduce)

	phWinogradTransformIn  = prof.Register(PhWinogradTransformIn)
	phWinogradElementwise  = prof.Register(PhWinogradElementwise)
	phWinogradTransformOut = prof.Register(PhWinogradTransformOut)

	phRFFTForward   = prof.Register(PhRFFTForward)
	phRFFTPointwise = prof.Register(PhRFFTPointwise)
	phRFFTInverse   = prof.Register(PhRFFTInverse)

	phDirectMain   = prof.Register(PhDirectMain)
	phImplicitPack = prof.Register(PhImplicitPack)
)
