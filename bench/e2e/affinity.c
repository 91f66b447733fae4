/* Pin the calling process to the highest-numbered processor it may run
   on.  Children started afterwards inherit the mask.  Returns that
   processor, or -1 where affinity cannot be set. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value e2e_pin_last_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  cpu_set_t set;
  int cpu;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
    if (CPU_ISSET(cpu, &set)) {
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
      return Val_int(cpu);
    }
  }
#endif
  return Val_int(-1);
}
