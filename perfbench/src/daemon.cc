#include "daemon.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "stamp.hh"

using killi::Json;

namespace perfbench
{

namespace
{

/** Poll waitpid for up to @p ms; true (with @p status) once reaped. */
bool
waitFor(pid_t pid, int ms, int &status)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (true) {
        const pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD))
            return true;
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/** Wait until every pid in @p pids is gone, up to @p ms. */
void
waitGone(const std::vector<pid_t> &pids, int ms)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    for (const pid_t p : pids) {
        while (kill(p, 0) == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (kill(p, 0) == 0)
            kill(p, SIGKILL);
    }
}

} // namespace

Daemon::~Daemon()
{
    stop(2000);
}

bool
Daemon::start(const std::vector<std::string> &argv,
              const std::string &dir, const std::string &logPath,
              const std::string &socketPath, std::string *err)
{
    socket = socketPath;
    // Everything the child touches is prepared before fork(): the
    // child only makes async-signal-safe calls before exec.
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const int logFd =
        open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
             0644);
    if (logFd < 0) {
        if (err)
            *err = "open " + logPath + ": " + std::strerror(errno);
        return false;
    }
    child = fork();
    if (child < 0) {
        close(logFd);
        if (err)
            *err = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (child == 0) {
        if (chdir(dir.c_str()) != 0)
            _exit(126);
        dup2(logFd, STDOUT_FILENO);
        dup2(logFd, STDERR_FILENO);
        const int devnull = open("/dev/null", O_RDONLY);
        if (devnull >= 0)
            dup2(devnull, STDIN_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
    close(logFd);

    // Poll every 2 ms until the socket accepts (a retry policy with
    // exponential backoff would quantize the start-up time we report).
    killi::serve::Client client;
    std::string cerr;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!client.connectUnix(socket, &cerr)) {
        int status = 0;
        if (waitpid(child, &status, WNOHANG) == child) {
            child = -1;
            if (err)
                *err = "daemon exited with status " +
                       std::to_string(WIFEXITED(status)
                                          ? WEXITSTATUS(status)
                                          : 128 + WTERMSIG(status));
            return false;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            if (err)
                *err = "daemon did not come up: " + cerr;
            stop(2000);
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Json ping = Json::object();
    ping.set("type", Json::string("ping"));
    Json pong;
    if (!client.send(ping, &cerr) ||
        !client.recvWithin(pong, 10000, &cerr) ||
        pong.at("type").asString() != "pong") {
        if (err)
            *err = "daemon did not answer ping: " + cerr;
        stop(2000);
        return false;
    }
    return true;
}

bool
Daemon::connect(killi::serve::Client &client, std::string *err) const
{
    killi::serve::ConnectOptions copt;
    copt.attempts = 5;
    copt.timeoutMs = 5000;
    return client.connectUnix(socket, copt, err);
}

double
Daemon::peakRssMb() const
{
    if (child <= 0)
        return 0.0;
    double total = perfbench::peakRssMb(child);
    for (const pid_t c : childrenOf(child))
        total += perfbench::peakRssMb(c);
    return total;
}

bool
Daemon::stop(int graceMs)
{
    if (child <= 0)
        return true;
    const std::vector<pid_t> kids = childrenOf(child);
    int status = 0;
    kill(child, SIGTERM);
    bool clean = waitFor(child, graceMs, status) && WIFEXITED(status) &&
                 WEXITSTATUS(status) == 0;
    if (waitpid(child, &status, WNOHANG) == 0) {
        kill(child, SIGKILL);
        waitFor(child, 5000, status);
        clean = false;
    }
    // Grandchildren (kfleetd's spawned workers) are drained by their
    // parent; make sure none outlives it.
    waitGone(kids, graceMs);
    child = -1;
    return clean;
}

} // namespace perfbench
