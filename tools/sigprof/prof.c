/* LD_PRELOAD sampling profiler: one program counter per SIGPROF tick of
 * process CPU time, written as offsets into the main executable when the
 * process exits, next to the process's executable mappings in the same
 * offsets. x86-64 Linux. See README.md. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES], count, bias;

static void tick(int sig, siginfo_t *info, void *uc) {
    unsigned long k = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (k < MAX_SAMPLES) pcs[k] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

/* The first object dl_iterate_phdr reports is the main executable. */
static int main_object(struct dl_phdr_info *info, size_t size, void *data) {
    bias = info->dlpi_addr;
    return 1;
}

static void timer(long us) {
    struct itimerval it = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &it, 0);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = tick, .sa_flags = SA_SIGINFO | SA_RESTART};
    dl_iterate_phdr(main_object, 0);
    sigaction(SIGPROF, &sa, 0);
    timer(1000); /* asks for 1 kHz; the kernel rounds up to its own tick */
}

/* Writes "START END OFFSET OBJECT" per executable mapping of this process
 * to SAMPLES.maps, START and END in the samples' offsets and OFFSET the
 * mapping's offset into its file, so a sample outside the main executable
 * can be named by the shared object it fell in and its file offset there. */
static void write_maps(const char *samples) {
    char path[4096], line[4352], perms[8], object[4096];
    unsigned long start, end, offset;
    snprintf(path, sizeof path, "%s.maps", samples);
    FILE *in = fopen("/proc/self/maps", "r"), *out = fopen(path, "w");
    while (in && out && fgets(line, sizeof line, in)) {
        object[0] = 0;
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095[^\n]", &start, &end, perms, &offset, object) >= 4
            && perms[2] == 'x')
            fprintf(out, "%#lx %#lx %#lx %s\n", start - bias, end - bias, offset,
                    object[0] ? object : "[anon]");
    }
    if (in) fclose(in);
    if (out) fclose(out);
}

__attribute__((destructor)) static void stop(void) {
    const char *path = getenv("SIGPROF_OUT");
    if (!path) path = "sigprof.out";
    FILE *out = fopen(path, "w");
    timer(0);
    if (!out) return;
    if (count > MAX_SAMPLES) count = MAX_SAMPLES;
    for (unsigned long k = 0; k < count; k++) fprintf(out, "%#lx\n", pcs[k] - bias);
    fclose(out);
    write_maps(path);
}
