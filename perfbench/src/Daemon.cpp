//===- Daemon.cpp - fcc-served child process and socket client ------------===//

#include "Harness.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <thread>

#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace perfbench {

int connectUnix(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

Connection::~Connection() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Connection::sendAll(const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool Connection::readLines(std::vector<std::string> &Lines) {
  char Chunk[1 << 16];
  ssize_t N;
  do
    N = ::read(Fd, Chunk, sizeof(Chunk));
  while (N < 0 && errno == EINTR);
  if (N <= 0)
    return false;
  Buf.append(Chunk, static_cast<size_t>(N));
  size_t Start = 0, Nl;
  while ((Nl = Buf.find('\n', Start)) != std::string::npos) {
    Lines.emplace_back(Buf, Start, Nl - Start);
    Start = Nl + 1;
  }
  Buf.erase(0, Start);
  return true;
}

bool Connection::roundTrip(const std::string &Line, std::string &Reply) {
  if (!sendAll(Line))
    return false;
  std::vector<std::string> Lines;
  while (Lines.empty())
    if (!readLines(Lines))
      return false;
  Reply = Lines.front();
  return true;
}

ServerProcess::~ServerProcess() {
  if (Pid > 0) {
    ::kill(Pid, SIGTERM);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
  }
}

bool ServerProcess::start(const DaemonOptions &Opts, std::string &Error) {
  Socket = Opts.SocketPath;
  ::unlink(Socket.c_str());
  std::vector<std::string> Args = {
      Opts.ServerPath,
      "--socket=" + Opts.SocketPath,
      "--jobs=" + std::to_string(Opts.Jobs),
      "--cache-bytes=" + std::to_string(Opts.CacheBytes),
      "--pipeline=new",
      "--quiet"};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  if (int Rc = ::posix_spawn(&Pid, Opts.ServerPath.c_str(), nullptr, nullptr,
                             Argv.data(), environ)) {
    Pid = -1;
    Error = "cannot start " + Opts.ServerPath + ": " + std::strerror(Rc);
    return false;
  }
  // Ready when the socket accepts a connection.
  for (int Try = 0; Try != 10000; ++Try) {
    int Fd = connectUnix(Socket);
    if (Fd >= 0) {
      ::close(Fd);
      return true;
    }
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Error = "fcc-served exited during start-up";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Error = "fcc-served did not open its socket within 10 s";
  return false;
}

bool ServerProcess::stop(std::string &Error) {
  if (Pid <= 0)
    return true;
  bool Ok = false;
  if (int Fd = connectUnix(Socket); Fd >= 0) {
    Connection C(Fd);
    std::string Reply;
    Ok = C.roundTrip("{\"op\":\"shutdown\",\"id\":0}\n", Reply) &&
         Reply.find("\"ok\"") != std::string::npos;
  }
  if (!Ok)
    ::kill(Pid, SIGTERM);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  Pid = -1;
  if (!Ok || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Error = "fcc-served did not shut down cleanly";
    return false;
  }
  return true;
}

} // namespace perfbench
