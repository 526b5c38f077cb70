/* A SIGPROF sampling profiler, loaded into any process with LD_PRELOAD.
 * Every tick of CPU time it appends "S <pc> <return addresses...>" (hex)
 * to sigprof.<pid>.out in the working directory; at exit it appends the
 * process's memory map as "M <line>" lines for report.py to symbolize. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

static int out_fd = -1;

static char *hex(char *p, unsigned long v) {
    int shift = 60;
    *p++ = ' ';
    while (shift > 0 && !(v >> shift)) shift -= 4;
    for (; shift >= 0; shift -= 4) *p++ = "0123456789abcdef"[(v >> shift) & 15];
    return p;
}

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    int saved = errno, n;
    void *frames[64];
    char line[64 * 17 + 24], *p = line;
    (void)sig, (void)info;
    n = backtrace(frames, 64);
    *p++ = 'S';
    p = hex(p, ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP]);
    for (int i = 0; i < n; i++) p = hex(p, (unsigned long)frames[i]);
    *p++ = '\n';
    if (write(out_fd, line, p - line) < 0) {}
    errno = saved;
}

__attribute__((constructor)) static void start(void) {
    char path[64];
    void *warm[1];
    struct sigaction sa = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    backtrace(warm, 1); /* load the unwinder outside the handler */
    snprintf(path, sizeof path, "sigprof.%d.out", (int)getpid());
    if ((out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644)) < 0) return;
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    char line[4096];
    FILE *maps = fopen("/proc/self/maps", "r");
    setitimer(ITIMER_PROF, &off, NULL);
    while (out_fd >= 0 && maps && fgets(line, sizeof line, maps))
        if (write(out_fd, "M ", 2) < 0 || write(out_fd, line, strlen(line)) < 0) break;
    if (maps) fclose(maps);
}
