package core_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/zoo"
)

const frontsPath = "testdata/desirable_fronts.txt"

// The desirable-set DP may be made cheaper but never different: the
// committed fingerprint covers every front — configurations, times and
// workspaces, in order — of every zoo convolution shape and operation
// under both dividing policies at N = 8 and 32 with 64 MiB per kernel. It
// was generated by the DP as of commit 461c2fd (before its scratch
// slices were hoisted); regenerate with UCUDNN_UPDATE_GOLDEN=1 only for a
// change that is meant to alter fronts.
func TestDesirableSetFrontsPinned(t *testing.T) {
	// Striped workspace sizes scale with the engine's worker cap.
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	var got strings.Builder
	for _, name := range zoo.Names() {
		for _, n := range []int{8, 32} {
			h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
			h.Mem().Cap = 0
			ctx := dnn.NewContext(h, h, 64<<20)
			ctx.SkipCompute = true
			net, _, err := zoo.Build(ctx, name, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Setup(); err != nil {
				t.Fatal(err)
			}
			for _, pol := range []core.Policy{core.PolicyPowerOfTwo, core.PolicyAll} {
				b := core.NewBencher(h, nil)
				sum := fnv.New64a()
				kernels, entries := 0, 0
				seen := map[string]bool{}
				for _, cl := range net.ConvLayers() {
					for _, op := range conv.Ops {
						k := core.Kernel{Op: op, Shape: cl.Shape()}
						if seen[k.String()] {
							continue
						}
						seen[k.String()] = true
						front, err := core.DesirableSet(b, k, 64<<20, pol)
						if err != nil {
							t.Fatal(err)
						}
						kernels++
						entries += len(front)
						fmt.Fprintf(sum, "%v\n", k)
						for _, sc := range front {
							fmt.Fprintf(sum, "%v %d %d\n", sc.Config, int64(sc.Time), sc.Workspace)
						}
					}
				}
				fmt.Fprintf(&got, "%s N=%d %v: %d kernels, %d front entries, fnv64a %016x\n", name, n, pol, kernels, entries, sum.Sum64())
			}
		}
	}
	if os.Getenv("UCUDNN_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(frontsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(frontsPath)
	if err != nil {
		t.Fatalf("reading the fingerprint (regenerate with UCUDNN_UPDATE_GOLDEN=1): %v", err)
	}
	if got.String() != string(data) {
		t.Errorf("desirable-set fronts drifted:\n got:\n%swant:\n%s", got.String(), data)
	}
}
