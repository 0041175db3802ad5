// Package zoo defines the evaluation networks of the paper: single-column
// AlexNet, ResNet-18/-50, DenseNet-40 (k=40) and a GoogLeNet Inception
// module, built on the internal/dnn framework.
//
// Convolution layer names all contain "conv", so timing reports can be
// filtered to convolutions with IsConvLayer, matching how the paper
// highlights convolutional layers only.
package zoo

import (
	"fmt"
	"strings"

	"ucudnn/internal/dnn"
	"ucudnn/internal/tensor"
)

// IsConvLayer reports whether a layer name denotes a convolution.
func IsConvLayer(name string) bool { return strings.Contains(name, "conv") }

// AlexNet builds the single-column AlexNet variant (Krizhevsky's "one
// weird trick" model with Caffe's LRN layers) for 224x224 inputs.
func AlexNet(ctx *dnn.Context, batch, classes int) (*dnn.Net, *dnn.SoftmaxLoss) {
	net := dnn.NewNet(ctx)
	net.Input("data", tensor.Shape{N: batch, C: 3, H: 224, W: 224})
	net.Add(dnn.NewConv("conv1", 64, 11, 4, 2, true).SkipInputGrad(), "conv1", "data")
	net.Add(dnn.NewReLU("relu1"), "relu1", "conv1")
	net.Add(dnn.NewLRN("norm1"), "norm1", "relu1")
	net.Add(dnn.NewPool("pool1", dnn.MaxPool, 3, 2, 0), "pool1", "norm1")
	net.Add(dnn.NewConv("conv2", 192, 5, 1, 2, true), "conv2", "pool1")
	net.Add(dnn.NewReLU("relu2"), "relu2", "conv2")
	net.Add(dnn.NewLRN("norm2"), "norm2", "relu2")
	net.Add(dnn.NewPool("pool2", dnn.MaxPool, 3, 2, 0), "pool2", "norm2")
	net.Add(dnn.NewConv("conv3", 384, 3, 1, 1, true), "conv3", "pool2")
	net.Add(dnn.NewReLU("relu3"), "relu3", "conv3")
	net.Add(dnn.NewConv("conv4", 256, 3, 1, 1, true), "conv4", "relu3")
	net.Add(dnn.NewReLU("relu4"), "relu4", "conv4")
	net.Add(dnn.NewConv("conv5", 256, 3, 1, 1, true), "conv5", "relu4")
	net.Add(dnn.NewReLU("relu5"), "relu5", "conv5")
	net.Add(dnn.NewPool("pool5", dnn.MaxPool, 3, 2, 0), "pool5", "relu5")
	net.Add(dnn.NewFC("fc6", 4096), "fc6", "pool5")
	net.Add(dnn.NewReLU("relu6"), "relu6", "fc6")
	net.Add(dnn.NewDropout("drop6", 0.5), "drop6", "relu6")
	net.Add(dnn.NewFC("fc7", 4096), "fc7", "drop6")
	net.Add(dnn.NewReLU("relu7"), "relu7", "fc7")
	net.Add(dnn.NewDropout("drop7", 0.5), "drop7", "relu7")
	net.Add(dnn.NewFC("fc8", classes), "fc8", "drop7")
	loss := dnn.NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "fc8")
	return net, loss
}

// CaffeAlexNet builds Caffe's original two-column AlexNet definition:
// 96/256/384/384/256 filters with grouped convolutions (groups=2) on
// conv2, conv4 and conv5 — the model the paper's Caffe experiments use.
func CaffeAlexNet(ctx *dnn.Context, batch, classes int) (*dnn.Net, *dnn.SoftmaxLoss) {
	net := dnn.NewNet(ctx)
	net.Input("data", tensor.Shape{N: batch, C: 3, H: 227, W: 227})
	net.Add(dnn.NewConv("conv1", 96, 11, 4, 0, true).SkipInputGrad(), "conv1", "data")
	net.Add(dnn.NewReLU("relu1"), "relu1", "conv1")
	net.Add(dnn.NewLRN("norm1"), "norm1", "relu1")
	net.Add(dnn.NewPool("pool1", dnn.MaxPool, 3, 2, 0), "pool1", "norm1")
	net.Add(dnn.NewConvGrouped("conv2", 256, 5, 1, 2, 2, true), "conv2", "pool1")
	net.Add(dnn.NewReLU("relu2"), "relu2", "conv2")
	net.Add(dnn.NewLRN("norm2"), "norm2", "relu2")
	net.Add(dnn.NewPool("pool2", dnn.MaxPool, 3, 2, 0), "pool2", "norm2")
	net.Add(dnn.NewConv("conv3", 384, 3, 1, 1, true), "conv3", "pool2")
	net.Add(dnn.NewReLU("relu3"), "relu3", "conv3")
	net.Add(dnn.NewConvGrouped("conv4", 384, 3, 1, 1, 2, true), "conv4", "relu3")
	net.Add(dnn.NewReLU("relu4"), "relu4", "conv4")
	net.Add(dnn.NewConvGrouped("conv5", 256, 3, 1, 1, 2, true), "conv5", "relu4")
	net.Add(dnn.NewReLU("relu5"), "relu5", "conv5")
	net.Add(dnn.NewPool("pool5", dnn.MaxPool, 3, 2, 0), "pool5", "relu5")
	net.Add(dnn.NewFC("fc6", 4096), "fc6", "pool5")
	net.Add(dnn.NewReLU("relu6"), "relu6", "fc6")
	net.Add(dnn.NewDropout("drop6", 0.5), "drop6", "relu6")
	net.Add(dnn.NewFC("fc7", 4096), "fc7", "drop6")
	net.Add(dnn.NewReLU("relu7"), "relu7", "fc7")
	net.Add(dnn.NewDropout("drop7", 0.5), "drop7", "relu7")
	net.Add(dnn.NewFC("fc8", classes), "fc8", "drop7")
	loss := dnn.NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "fc8")
	return net, loss
}

// convBNReLU appends conv -> batch-norm -> relu, returning the top name.
func convBNReLU(net *dnn.Net, name string, bottom string, k, kernel, stride, pad int, relu bool, skipInputGrad bool) string {
	c := dnn.NewConv(name+".conv", k, kernel, stride, pad, false)
	if skipInputGrad {
		c.SkipInputGrad()
	}
	net.Add(c, name+".conv", bottom)
	net.Add(dnn.NewBatchNorm(name+".bn"), name+".bn", name+".conv")
	if !relu {
		return name + ".bn"
	}
	net.Add(dnn.NewReLU(name+".relu"), name+".relu", name+".bn")
	return name + ".relu"
}

// basicBlock appends a ResNet-18 basic block (two 3x3 convolutions).
func basicBlock(net *dnn.Net, name, bottom string, k, stride int) string {
	t := convBNReLU(net, name+".a", bottom, k, 3, stride, 1, true, false)
	t = convBNReLU(net, name+".b", t, k, 3, 1, 1, false, false)
	shortcut := bottom
	if stride != 1 {
		shortcut = convBNReLU(net, name+".down", bottom, k, 1, stride, 0, false, false)
	}
	net.Add(dnn.NewAdd(name+".add"), name+".add", t, shortcut)
	net.Add(dnn.NewReLU(name+".out"), name+".out", name+".add")
	return name + ".out"
}

// bottleneckBlock appends a ResNet-50 bottleneck (1x1, 3x3, 1x1 with 4x
// expansion).
func bottleneckBlock(net *dnn.Net, name, bottom string, mid, stride int, project bool) string {
	out := mid * 4
	t := convBNReLU(net, name+".a", bottom, mid, 1, stride, 0, true, false)
	t = convBNReLU(net, name+".b", t, mid, 3, 1, 1, true, false)
	t = convBNReLU(net, name+".c", t, out, 1, 1, 0, false, false)
	shortcut := bottom
	if project {
		shortcut = convBNReLU(net, name+".down", bottom, out, 1, stride, 0, false, false)
	}
	net.Add(dnn.NewAdd(name+".add"), name+".add", t, shortcut)
	net.Add(dnn.NewReLU(name+".out"), name+".out", name+".add")
	return name + ".out"
}

// resnetStem appends the shared 7x7 stem.
func resnetStem(net *dnn.Net, batch int) string {
	net.Input("data", tensor.Shape{N: batch, C: 3, H: 224, W: 224})
	t := convBNReLU(net, "stem", "data", 64, 7, 2, 3, true, true)
	net.Add(dnn.NewPool("pool1", dnn.MaxPool, 3, 2, 0), "pool1", t)
	return "pool1"
}

// ResNet18 builds ResNet-18 for 224x224 inputs.
func ResNet18(ctx *dnn.Context, batch, classes int) (*dnn.Net, *dnn.SoftmaxLoss) {
	net := dnn.NewNet(ctx)
	t := resnetStem(net, batch)
	widths := []int{64, 128, 256, 512}
	for si, k := range widths {
		for bi := 0; bi < 2; bi++ {
			stride := 1
			if si > 0 && bi == 0 {
				stride = 2
			}
			t = basicBlock(net, fmt.Sprintf("res%d.%d", si+2, bi), t, k, stride)
		}
	}
	return resnetHead(net, t, classes)
}

// ResNet50 builds ResNet-50 for 224x224 inputs.
func ResNet50(ctx *dnn.Context, batch, classes int) (*dnn.Net, *dnn.SoftmaxLoss) {
	net := dnn.NewNet(ctx)
	t := resnetStem(net, batch)
	mids := []int{64, 128, 256, 512}
	counts := []int{3, 4, 6, 3}
	for si, mid := range mids {
		for bi := 0; bi < counts[si]; bi++ {
			stride := 1
			if si > 0 && bi == 0 {
				stride = 2
			}
			t = bottleneckBlock(net, fmt.Sprintf("res%d.%d", si+2, bi), t, mid, stride, bi == 0)
		}
	}
	return resnetHead(net, t, classes)
}

func resnetHead(net *dnn.Net, top string, classes int) (*dnn.Net, *dnn.SoftmaxLoss) {
	net.Add(dnn.NewGlobalAvgPool("gap"), "gap", top)
	net.Add(dnn.NewFC("fc", classes), "fc", "gap")
	loss := dnn.NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "fc")
	return net, loss
}

// DenseNet40 builds DenseNet-40 (three dense blocks of 12 basic layers)
// with the given growth rate for 32x32 CIFAR inputs. The paper evaluates
// k=40.
func DenseNet40(ctx *dnn.Context, batch, growth, classes int) (*dnn.Net, *dnn.SoftmaxLoss) {
	net := dnn.NewNet(ctx)
	net.Input("data", tensor.Shape{N: batch, C: 3, H: 32, W: 32})
	net.Add(dnn.NewConv("conv0", 16, 3, 1, 1, false).SkipInputGrad(), "conv0", "data")
	features := "conv0"
	const layersPerBlock = 12
	for b := 0; b < 3; b++ {
		for l := 0; l < layersPerBlock; l++ {
			name := fmt.Sprintf("dense%d.%d", b+1, l)
			net.Add(dnn.NewBatchNorm(name+".bn"), name+".bn", features)
			net.Add(dnn.NewReLU(name+".relu"), name+".relu", name+".bn")
			net.Add(dnn.NewConv(name+".conv", growth, 3, 1, 1, false), name+".conv", name+".relu")
			cat := name + ".cat"
			net.Add(dnn.NewConcat(cat), cat, features, name+".conv")
			features = cat
		}
		if b < 2 {
			name := fmt.Sprintf("trans%d", b+1)
			net.Add(dnn.NewBatchNorm(name+".bn"), name+".bn", features)
			net.Add(dnn.NewReLU(name+".relu"), name+".relu", name+".bn")
			// 1x1 convolution keeps the channel count (no compression).
			tc := transChannels(16, growth, b+1)
			net.Add(dnn.NewConv(name+".conv", tc, 1, 1, 0, false), name+".conv", name+".relu")
			net.Add(dnn.NewPool(name+".pool", dnn.AvgPool, 2, 2, 0), name+".pool", name+".conv")
			features = name + ".pool"
		}
	}
	net.Add(dnn.NewBatchNorm("final.bn"), "final.bn", features)
	net.Add(dnn.NewReLU("final.relu"), "final.relu", "final.bn")
	net.Add(dnn.NewGlobalAvgPool("gap"), "gap", "final.relu")
	net.Add(dnn.NewFC("fc", classes), "fc", "gap")
	loss := dnn.NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "fc")
	return net, loss
}

// transChannels returns the channel count entering transition t.
func transChannels(c0, growth, t int) int { return c0 + t*12*growth }

// InceptionModule builds the GoogLeNet "inception (3a)" module alone
// (paper §III-A motivates WD with Inception's concurrent branches). The
// returned net has no loss layer; its output is the branch concatenation.
func InceptionModule(ctx *dnn.Context, batch int) *dnn.Net {
	net := dnn.NewNet(ctx)
	net.Input("data", tensor.Shape{N: batch, C: 192, H: 28, W: 28})
	// Branch 1: 1x1.
	net.Add(dnn.NewConv("inc.b1.conv1x1", 64, 1, 1, 0, true), "inc.b1.conv1x1", "data")
	net.Add(dnn.NewReLU("inc.b1.relu"), "b1", "inc.b1.conv1x1")
	// Branch 2: 1x1 reduce -> 3x3.
	net.Add(dnn.NewConv("inc.b2.conv1x1", 96, 1, 1, 0, true), "inc.b2.conv1x1", "data")
	net.Add(dnn.NewReLU("inc.b2.relu1"), "inc.b2.r1", "inc.b2.conv1x1")
	net.Add(dnn.NewConv("inc.b2.conv3x3", 128, 3, 1, 1, true), "inc.b2.conv3x3", "inc.b2.r1")
	net.Add(dnn.NewReLU("inc.b2.relu2"), "b2", "inc.b2.conv3x3")
	// Branch 3: 1x1 reduce -> 5x5.
	net.Add(dnn.NewConv("inc.b3.conv1x1", 16, 1, 1, 0, true), "inc.b3.conv1x1", "data")
	net.Add(dnn.NewReLU("inc.b3.relu1"), "inc.b3.r1", "inc.b3.conv1x1")
	net.Add(dnn.NewConv("inc.b3.conv5x5", 32, 5, 1, 2, true), "inc.b3.conv5x5", "inc.b3.r1")
	net.Add(dnn.NewReLU("inc.b3.relu2"), "b3", "inc.b3.conv5x5")
	// Branch 4: 3x3 maxpool -> 1x1.
	net.Add(dnn.NewPool("inc.b4.pool", dnn.MaxPool, 3, 1, 1), "inc.b4.p", "data")
	net.Add(dnn.NewConv("inc.b4.conv1x1", 32, 1, 1, 0, true), "inc.b4.conv1x1", "inc.b4.p")
	net.Add(dnn.NewReLU("inc.b4.relu"), "b4", "inc.b4.conv1x1")
	net.Add(dnn.NewConcat("inc.concat"), "out", "b1", "b2", "b3", "b4")
	return net
}

// Names lists the networks Build knows, in the order the CLIs document
// them.
func Names() []string {
	return []string{"alexnet", "caffe-alexnet", "resnet18", "resnet50", "densenet40", "inception"}
}

// Build constructs the named network at its paper-evaluation size
// (1000 ImageNet classes; DenseNet-40 with k=40 over 10 classes) over
// ctx. The loss head is nil where the zoo defines none (inception).
func Build(ctx *dnn.Context, name string, batch int) (*dnn.Net, *dnn.SoftmaxLoss, error) {
	switch name {
	case "alexnet":
		net, loss := AlexNet(ctx, batch, 1000)
		return net, loss, nil
	case "caffe-alexnet":
		net, loss := CaffeAlexNet(ctx, batch, 1000)
		return net, loss, nil
	case "resnet18":
		net, loss := ResNet18(ctx, batch, 1000)
		return net, loss, nil
	case "resnet50":
		net, loss := ResNet50(ctx, batch, 1000)
		return net, loss, nil
	case "densenet40":
		net, loss := DenseNet40(ctx, batch, 40, 10)
		return net, loss, nil
	case "inception":
		return InceptionModule(ctx, batch), nil, nil
	}
	return nil, nil, fmt.Errorf("zoo: unknown network %q (have %s)", name, strings.Join(Names(), ", "))
}
