// Package kern is a phasename fixture exercising the naming contract.
package kern

import "prof"

const phaseLocal prof.Phase = "ucudnn_ph_kern_local"

var (
	phGemm  = prof.Register(prof.PhaseGemmSgemm)
	phLocal = prof.Register(phaseLocal)
)

func compliant() {
	_ = prof.Register("ucudnn_ph_kern_inline")
	_ = prof.Describe(prof.PhaseGemmSgemm)
}

// The out-of-core transfer phases follow the same scheme.
const phaseOOCFetch prof.Phase = "ucudnn_ph_ooc_fetch"

var phOOC = prof.Register(phaseOOCFetch)

func compliantOOC() {
	_ = prof.Register("ucudnn_ph_ooc_spill")
	_ = prof.Register("ucudnn_ph_ooc_recompute")
}

// So do the implicit-GEMM packers, which sit beside blas's kernel phase.
const phaseImplicitPack prof.Phase = "ucudnn_ph_implicit_pack"

var phImplicitPack = prof.Register(phaseImplicitPack)

func dynamicPhases(p prof.Phase, s string) {
	_ = prof.Register(p)             // want `compile-time prof.Phase constant`
	_ = prof.Register(prof.Phase(s)) // want `compile-time prof.Phase constant`
	_ = prof.Describe(p)             // want `compile-time prof.Phase constant`
}

func badNames() {
	_ = prof.Register("gemm_sgemm")           // want `does not match the ucudnn_ph_\* snake_case scheme`
	_ = prof.Register("ucudnn_gemm")          // want `does not match the ucudnn_ph_\* snake_case scheme`
	_ = prof.Describe(prof.PhaseLegacy)       // want `does not match the ucudnn_ph_\* snake_case scheme`
	_ = prof.Register("ucudnn_ph_UpperCamel") // want `does not match the ucudnn_ph_\* snake_case scheme`
}

// accepted documents a justified exception.
func accepted(p prof.Phase) {
	//ucudnn:allow phasename -- replaying a phase parsed from an operator-supplied report
	_ = prof.Describe(p)
}
