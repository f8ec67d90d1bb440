#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace rustbrain::serve {

namespace {

/// Closes `fd` and throws with the errno captured before the close.
[[noreturn]] void fail_errno(const char* what, int fd) {
    const int saved = errno;
    if (fd >= 0) ::close(fd);
    throw std::runtime_error(std::string(what) + ": " + std::strerror(saved));
}

}  // namespace

RepairServer::RepairServer(ServerOptions options) : service_(options.service) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail_errno("socket", fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
        fail_errno("bind 127.0.0.1", fd);
    }
    socklen_t addr_len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
        0) {
        fail_errno("getsockname", fd);
    }
    port_ = ntohs(addr.sin_port);
    if (::listen(fd, 16) != 0) fail_errno("listen", fd);

    Reactor::Options reactor_options;
    reactor_options.max_requests = options.max_requests;
    reactor_options.max_connections = options.max_connections;
    reactor_options.send_buffer_bytes = options.send_buffer_bytes;
    // The reactor takes ownership of the listening fd.
    reactor_ = std::make_unique<Reactor>(fd, service_, reactor_options);
}

}  // namespace rustbrain::serve
