/* A CPU sampler to preload into one process (see scripts/profile.sh).
 *
 * ITIMER_PROF sends this process SIGPROF every SIGPROF_US microseconds of
 * its own CPU time (default 1000); the handler records the interrupted pc
 * and the return addresses found by walking the frame-pointer chain of
 * the main thread's stack. At exit the samples go to SIGPROF_OUT (default
 * sigprof.out): the process's /proc/self/maps as `map` lines, then one
 * `s` line of hex addresses per sample, innermost first. The program must
 * be built with frame pointers; libc frames, which have none, are
 * skipped over. Build: cc -O2 -shared -fPIC -o sigprof.so sigprof.c */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 16)
#define DEPTH 64

static uintptr_t stacks[MAX_SAMPLES][DEPTH];
static unsigned char depths[MAX_SAMPLES];
static size_t taken;
static uintptr_t stack_lo, stack_hi; /* the main thread's stack */

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    size_t i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) return;
    mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
#if defined(__x86_64__)
    uintptr_t pc = m->gregs[REG_RIP], fp = m->gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = m->pc, fp = m->regs[29];
#else
#error "sigprof.c walks x86_64 and aarch64 frames only"
#endif
    int n = 0;
    stacks[i][n++] = pc;
    /* A frame is [caller's fp, return address]; callers sit higher up. */
    while (n < DEPTH && fp % 8 == 0 && fp >= stack_lo && fp + 16 <= stack_hi) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret == 0) break;
        stacks[i][n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    depths[i] = (unsigned char)n;
}

__attribute__((constructor)) static void start(void) {
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps)) {
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    }
    if (maps) fclose(maps);
    struct rlimit limit;
    if (getrlimit(RLIMIT_STACK, &limit) == 0 && limit.rlim_cur != RLIM_INFINITY)
        stack_lo = stack_hi - limit.rlim_cur; /* the mapping grows down to here */
    struct sigaction action = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    const char *us = getenv("SIGPROF_US");
    long period = us ? atol(us) : 1000;
    struct itimerval timer = {{0, period}, {0, period}};
    setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[512];
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    fclose(maps);
    size_t samples = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (size_t i = 0; i < samples; i++) {
        fputs("s", out);
        for (int d = 0; d < depths[i]; d++) fprintf(out, " %lx", (unsigned long)stacks[i][d]);
        fputs("\n", out);
    }
    fclose(out);
}
