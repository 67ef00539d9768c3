/* CPU affinity for the benchmark's timed passes (see Measure.rotate). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs this process may run on, as an int array (empty if unknown). */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int i, n = 0, k = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(Atom(0));
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  if (n == 0) CAMLreturn(Atom(0));
  res = caml_alloc_tuple(n); /* immediate fields: an int array */
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, k++, Val_int(i));
  CAMLreturn(res);
}

/* Restrict the calling thread to the given CPUs; false if refused. */
value perfbench_set_affinity(value cpus)
{
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) CPU_SET(Int_val(Field(cpus, i)), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
