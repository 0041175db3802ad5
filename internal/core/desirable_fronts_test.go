package core_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
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
			h, net := zooNet(t, name, n)
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

// zooNet sets zoo network name up at batch n on a model-only handle, for
// its convolution shapes.
func zooNet(t *testing.T, name string, n int) (*cudnn.Handle, *dnn.Net) {
	t.Helper()
	h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	h.Mem().Cap = 0
	net, _, err := zoo.Build(dnn.NewContext(h, h, 64<<20), name, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	return h, net
}

// The linked enumeration returns the eager oracle's fronts exactly,
// configurations included, on every zoo convolution kernel under both
// dividing policies, at a budget every kernel fits (64 MiB) and at one
// that cuts most fronts (1 MiB).
func TestDesirableSetMatchesEagerOnZoo(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	for _, name := range zoo.Names() {
		for _, n := range []int{8, 32} {
			h, net := zooNet(t, name, n)
			b := core.NewBencher(h, nil)
			seen := map[core.Kernel]bool{}
			for _, cl := range net.ConvLayers() {
				for _, op := range conv.Ops {
					k := core.Kernel{Op: op, Shape: cl.Shape()}
					if seen[k] {
						continue
					}
					seen[k] = true
					for _, pol := range []core.Policy{core.PolicyPowerOfTwo, core.PolicyAll} {
						for _, limit := range []int64{64 << 20, 1 << 20} {
							want, werr := core.EagerDesirableSet(b, k, limit, pol)
							got, gerr := core.DesirableSet(b, k, limit, pol)
							if (werr == nil) != (gerr == nil) {
								t.Fatalf("%s N=%d %v %v limit %d: eager error %v, linked error %v", name, n, k, pol, limit, werr, gerr)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s N=%d %v %v limit %d:\n linked %v\n  eager %v", name, n, k, pol, limit, got, want)
							}
						}
					}
				}
			}
		}
	}
}
