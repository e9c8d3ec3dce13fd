/* Monotonic time source for tracing and deadline budgets.

   CLOCK_MONOTONIC never steps backwards (NTP slews it but cannot jump
   it), so latency measurements and deadline polls built on it cannot
   go negative the way wall-clock-based timing can.  The native
   entry point is unboxed and noalloc: a poll from a solver hot loop
   costs one vDSO call, no OCaml allocation. */

#include <caml/alloc.h>
#include <caml/mlvalues.h>
#include <time.h>

double cqp_clock_monotonic_us_unboxed(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e6 + (double)ts.tv_nsec / 1e3;
}

CAMLprim value cqp_clock_monotonic_us_byte(value unit)
{
  (void)unit;
  return caml_copy_double(cqp_clock_monotonic_us_unboxed());
}
