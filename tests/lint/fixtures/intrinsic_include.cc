// Fixture: sc-intrinsic-include fires on every *intrin.h include (the
// allowlist is empty); other system headers never fire.
#include <cpuid.h>
#include <immintrin.h>       // finding: line 4
#include <x86/avx2intrin.h>  // finding: line 5

int FixtureNoIntrinsicsUsed() { return 0; }
