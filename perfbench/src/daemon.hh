/**
 * @file
 * A serving daemon (kserved or kfleetd) owned by the benchmark: spawned
 * with its output in a log file, probed until it answers ping, and
 * always stopped and reaped — by SIGTERM (the daemons' graceful drain)
 * first, SIGKILL last. Daemons stay in kperf's process group, so
 * whoever started kperf can stop the whole tree at once.
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <sys/types.h>

#include <string>
#include <vector>

#include "serve/client/client.hh"

namespace perfbench
{

class Daemon
{
  public:
    Daemon() = default;
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Launch @p argv (argv[0] is the binary path) with working
     * directory @p dir, appending stdout and stderr to @p logPath,
     * then wait until @p socketPath answers a ping.
     */
    bool start(const std::vector<std::string> &argv,
               const std::string &dir, const std::string &logPath,
               const std::string &socketPath, std::string *err);

    /** Connect a client to the daemon's socket. */
    bool connect(killi::serve::Client &client, std::string *err) const;

    /** Peak resident memory of the daemon plus its live children. */
    double peakRssMb() const;

    /**
     * Graceful stop (SIGTERM drain), escalating to SIGKILL of the
     * daemon and its children after @p graceMs. True when the daemon
     * exited 0 on its own.
     */
    bool stop(int graceMs = 10000);

  private:
    pid_t child = -1;
    std::string socket;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH
