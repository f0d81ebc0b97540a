// Package cpufeat reports the CPU features the assembly kernels need. It is
// read once at start-up; each kernel package copies the flag into its own
// unexported switch, which only that package's tests flip to run both the
// assembly and the portable Go path.
package cpufeat

// AVX2 reports AVX2 support with YMM state enabled by the OS. It is always
// false off amd64.
var AVX2 = hasAVX2()
