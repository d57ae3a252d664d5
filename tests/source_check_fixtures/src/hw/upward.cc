// Fixture for cmake/check_sources.cmake, never compiled: hw (rank 1)
// includes its own layer and sim freely, but not hv (rank 2).
#include "src/hw/paging.h"
#include "src/sim/time.h"
#include "src/hv/kernel.h"  // expect: layering
