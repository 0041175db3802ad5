//go:build amd64

package dnn

import "ucudnn/internal/blas"

// poolMergeAVX is the AVX form of poolMergeGeneric over n >= 8 lanes at
// stride 1 or 2, in rows, bitwise-identical to it (see pool_amd64.s).
//
//go:noescape
func poolMergeAVX(d *float32, di *int32, dRow int, s *float32, si *int32, sRow, rows, n, stride int)

// poolAVX selects the AVX merge body; a variable so the tests can run the
// twin.
var poolAVX = blas.HasAVX()
