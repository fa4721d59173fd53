//go:build !amd64 || purego

package batch

// simdKernels reports that this build has no vector strip kernels:
// every lane width runs the generic Go bodies.
func simdKernels(int) (stripKernels, bool) { return stripKernels{}, false }
