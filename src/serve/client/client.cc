#include "serve/client/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace killi::serve
{

namespace
{

void
fillErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
}

bool
setBlocking(int fd, bool blocking)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    const int want =
        blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
    return ::fcntl(fd, F_SETFL, want) == 0;
}

} // namespace

Json
submitFrame(Json options, int priority, bool stream)
{
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("priority", Json::number(std::int64_t(priority)));
    req.set("stream", Json::boolean(stream));
    return req;
}

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (sock >= 0) {
        ::close(sock);
        sock = -1;
    }
}

bool
Client::connectOnce(int family, const void *addr,
                    std::size_t addrLen, const std::string &what,
                    int timeoutMs, std::string *err)
{
    close();
    sock = ::socket(family, SOCK_STREAM, 0);
    if (sock < 0) {
        fillErr(err, std::string("socket: ") + std::strerror(errno));
        return false;
    }
    if (timeoutMs <= 0) {
        if (::connect(sock,
                      reinterpret_cast<const sockaddr *>(addr),
                      socklen_t(addrLen)) != 0) {
            fillErr(err, "connect " + what + ": " +
                             std::strerror(errno));
            close();
            return false;
        }
        return true;
    }
    // Deadline-bounded connect: non-blocking connect, poll for
    // writability, then read the verdict out of SO_ERROR. The
    // socket goes back to blocking afterwards — the rest of the
    // Client is blocking I/O.
    if (!setBlocking(sock, false)) {
        fillErr(err, std::string("fcntl: ") + std::strerror(errno));
        close();
        return false;
    }
    const int rc = ::connect(
        sock, reinterpret_cast<const sockaddr *>(addr),
        socklen_t(addrLen));
    if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN) {
        fillErr(err,
                "connect " + what + ": " + std::strerror(errno));
        close();
        return false;
    }
    if (rc != 0) {
        struct pollfd pfd{sock, POLLOUT, 0};
        int ready;
        do {
            ready = ::poll(&pfd, 1, timeoutMs);
        } while (ready < 0 && errno == EINTR);
        if (ready <= 0) {
            fillErr(err, "connect " + what + ": timeout after " +
                             std::to_string(timeoutMs) + "ms");
            close();
            return false;
        }
        int soErr = 0;
        socklen_t len = sizeof(soErr);
        if (::getsockopt(sock, SOL_SOCKET, SO_ERROR, &soErr,
                         &len) != 0 ||
            soErr != 0) {
            fillErr(err, "connect " + what + ": " +
                             std::strerror(soErr ? soErr : errno));
            close();
            return false;
        }
    }
    if (!setBlocking(sock, true)) {
        fillErr(err, std::string("fcntl: ") + std::strerror(errno));
        close();
        return false;
    }
    return true;
}

bool
Client::connectUnix(const std::string &path, std::string *err)
{
    return connectUnix(path, ConnectOptions{}, err);
}

bool
Client::connectUnix(const std::string &path,
                    const ConnectOptions &copt, std::string *err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        fillErr(err, "socket path too long: " + path);
        return false;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int backoff = std::max(1, copt.backoffMs);
    const unsigned attempts = std::max(1u, copt.attempts);
    for (unsigned tryNo = 1;; ++tryNo) {
        if (connectOnce(AF_UNIX, &addr, sizeof(addr), path,
                        copt.timeoutMs, err))
            return true;
        if (tryNo >= attempts)
            return false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff));
        backoff = std::min(backoff * 2, copt.maxBackoffMs);
    }
}

bool
Client::connectTcp(std::uint16_t port, std::string *err)
{
    return connectTcp(port, ConnectOptions{}, err);
}

bool
Client::connectTcp(std::uint16_t port, const ConnectOptions &copt,
                   std::string *err)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    int backoff = std::max(1, copt.backoffMs);
    const unsigned attempts = std::max(1u, copt.attempts);
    for (unsigned tryNo = 1;; ++tryNo) {
        if (connectOnce(AF_INET, &addr, sizeof(addr),
                        "127.0.0.1:" + std::to_string(port),
                        copt.timeoutMs, err))
            return true;
        if (tryNo >= attempts)
            return false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff));
        backoff = std::min(backoff * 2, copt.maxBackoffMs);
    }
}

bool
Client::send(const Json &frame, std::string *err)
{
    if (sock < 0) {
        fillErr(err, "not connected");
        return false;
    }
    const std::string bytes = encodeFrame(frame);
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(sock, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += std::size_t(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        fillErr(err, std::string("send: ") + std::strerror(errno));
        return false;
    }
    return true;
}

bool
Client::recv(Json &frame, std::string *err)
{
    if (sock < 0) {
        fillErr(err, "not connected");
        return false;
    }
    char buf[65536];
    while (true) {
        switch (decoder.next(frame)) {
          case FrameDecoder::Status::Frame:
            return true;
          case FrameDecoder::Status::Error:
            fillErr(err, "protocol error: " + decoder.error());
            return false;
          case FrameDecoder::Status::NeedMore:
            break;
        }
        const ssize_t n = ::recv(sock, buf, sizeof(buf), 0);
        if (n > 0) {
            decoder.feed(buf, std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        fillErr(err, n == 0 ? "connection closed"
                            : std::string("recv: ") +
                                  std::strerror(errno));
        return false;
    }
}

bool
Client::recvWithin(Json &frame, int timeoutMs, std::string *err)
{
    if (sock < 0) {
        fillErr(err, "not connected");
        return false;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    char buf[65536];
    while (true) {
        switch (decoder.next(frame)) {
          case FrameDecoder::Status::Frame:
            return true;
          case FrameDecoder::Status::Error:
            fillErr(err, "protocol error: " + decoder.error());
            return false;
          case FrameDecoder::Status::NeedMore:
            break;
        }
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0) {
            fillErr(err, "timeout after " +
                             std::to_string(timeoutMs) + "ms");
            return false;
        }
        struct pollfd pfd{sock, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, int(left));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            fillErr(err, std::string("poll: ") +
                             std::strerror(errno));
            return false;
        }
        if (ready == 0) {
            fillErr(err, "timeout after " +
                             std::to_string(timeoutMs) + "ms");
            return false;
        }
        const ssize_t n = ::recv(sock, buf, sizeof(buf), 0);
        if (n > 0) {
            decoder.feed(buf, std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        fillErr(err, n == 0 ? "connection closed"
                            : std::string("recv: ") +
                                  std::strerror(errno));
        return false;
    }
}

bool
Client::submit(const Json &request, Json &terminal,
               const std::function<void(const Json &)> &onFrame,
               std::string *err)
{
    if (!send(request, err))
        return false;
    while (true) {
        Json frame;
        if (!recv(frame, err))
            return false;
        const std::string &type = frame.at("type").asString();
        if (type == "result" || type == "error") {
            terminal = std::move(frame);
            return true;
        }
        if (onFrame)
            onFrame(frame);
    }
}

} // namespace killi::serve
