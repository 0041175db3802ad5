//go:build !amd64

package dnn

const poolAVX = false

func poolMergeAVX(d *float32, di *int32, dRow int, s *float32, si *int32, sRow, rows, n, stride int) {
	panic("dnn: poolMergeAVX without amd64")
}
