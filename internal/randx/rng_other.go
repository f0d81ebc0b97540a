//go:build !amd64

package randx

// int63sRun steps no entries off amd64; source.Int63s's Go loop steps the
// whole run.
func int63sRun(f, t, out *int64, k int) int { return 0 }
