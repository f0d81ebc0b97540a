package randx

// int63sRun is the AVX2 form of one wrap-free run of source.Int63s: four
// steps per iteration, from the top of the run down. In a run tap and feed
// are 273 or 334 entries apart, so no lane reads a value that a lane of the
// same iteration writes, and each iteration stores its feed values before
// the next one loads its taps: a tap the run already fed reads the new
// value, as step by step. The four outputs of an iteration are the run's
// steps in reverse lane order.
//
// f and t are the run's feed and tap windows, out its output, all k long.
// The kernel steps the top k − k%4 entries and returns that count; the Go
// loop steps the rest.
//
//go:noescape
func int63sRun(f, t, out *int64, k int) int
