#include "dist/coordinator.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>

#include "dist/frame.h"
#include "dist/protocol.h"
#include "serve/lifecycle.h"
#include "util/log.h"

namespace repro {

std::string DistStats::summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "workers: %llu spawned (%llu respawned), %llu connected, %llu died "
      "(%llu heartbeat timeouts, %llu frame errors) | jobs: %llu remote, "
      "%llu reassigned, %llu quarantined-from-remote, %llu degraded | "
      "%llu checkpoints streamed (%llu bytes)",
      static_cast<unsigned long long>(workers_spawned),
      static_cast<unsigned long long>(workers_respawned),
      static_cast<unsigned long long>(workers_connected),
      static_cast<unsigned long long>(workers_died),
      static_cast<unsigned long long>(heartbeat_timeouts),
      static_cast<unsigned long long>(frame_errors),
      static_cast<unsigned long long>(jobs_completed_remote),
      static_cast<unsigned long long>(jobs_reassigned),
      static_cast<unsigned long long>(jobs_quarantined_remote),
      static_cast<unsigned long long>(jobs_degraded),
      static_cast<unsigned long long>(checkpoints_streamed),
      static_cast<unsigned long long>(checkpoint_stream_bytes));
  return buf;
}

struct Coordinator::Impl {
  explicit Impl(Coordinator& self) : self_(self), opt_(self.opt_) {}

  Coordinator& self_;
  const CoordinatorOptions& opt_;

  UniqueFd listen_fd_;
  SocketAddr bound_;
  bool started_ = false;
  bool stopped_ = false;

  struct Conn {
    UniqueFd fd;
    FrameDecoder decoder;
    int worker_id = -1;
    long pid = -1;
    bool hello_done = false;
    double last_seen = 0;
    int job = -1;  ///< batch job index in flight, -1 = idle
    int attempt = 0;  ///< the attempt of `job` this worker is running
    bool dead = false;
  };
  std::vector<std::unique_ptr<Conn>> conns_;

  struct Child {
    pid_t pid = -1;
    bool alive = true;
  };
  std::vector<Child> children_;
  int next_worker_id_ = 1;
  int respawns_used_ = 0;

  JobCounters counters_;  ///< ServiceStats, cumulative over batches

  // ---- per-batch runtime ---------------------------------------------------
  std::unique_ptr<JobLifecycle> lc_;  ///< null between batches
  std::deque<int> pending_;
  bool degraded_ = false;
  double zero_workers_since_ = -1;

  bool shutting_down() const {
    return self_.shutdown_requested_.load(std::memory_order_relaxed);
  }

  // ---- processes and sockets -----------------------------------------------

  SocketAddr start() {
    listen_fd_ = listen_socket(opt_.listen, &bound_);
    set_nonblocking(listen_fd_.get(), true);
    for (int slot = 0; slot < opt_.spawn_workers; ++slot) {
      const std::string fault =
          slot < static_cast<int>(opt_.worker_faults.size())
              ? opt_.worker_faults[slot]
              : "";
      spawn_child(fault, /*respawn=*/false);
    }
    started_ = true;
    return bound_;
  }

  void spawn_child(const std::string& fault, bool respawn) {
    std::vector<std::string> args;
    args.push_back(opt_.worker_exe);
    args.push_back("--worker");
    args.push_back("--connect");
    args.push_back(bound_.to_string());
    for (const std::string& a : opt_.worker_args) args.push_back(a);
    if (!fault.empty()) {
      args.push_back("--fault");
      args.push_back(fault);
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    if (pid < 0) {
      LOG_WARN() << "coordinator: fork failed, worker not spawned";
      return;
    }
    children_.push_back({pid, true});
    ++self_.dist_stats_.workers_spawned;
    if (respawn) ++self_.dist_stats_.workers_respawned;
  }

  int live_children() const {
    int n = 0;
    for (const Child& c : children_) n += c.alive ? 1 : 0;
    return n;
  }

  void reap_children(bool allow_respawn) {
    for (Child& c : children_) {
      if (!c.alive) continue;
      int status = 0;
      const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
      if (r == c.pid) {
        c.alive = false;
        maybe_respawn(allow_respawn);
      }
    }
  }

  void maybe_respawn(bool allow) {
    if (!allow || !lc_ || lc_->unfinished() == 0) return;
    if (respawns_used_ >= opt_.respawn_budget) return;
    ++respawns_used_;
    // Replacements never inherit fault plans: a chaos schedule names the
    // original workers, and an injected fault recurring forever would turn
    // bounded chaos into a livelock.
    spawn_child("", /*respawn=*/true);
  }

  void kill_child_pid(long pid) {
    if (pid <= 0 || pid == static_cast<long>(::getpid())) return;
    for (Child& c : children_) {
      if (c.pid != static_cast<pid_t>(pid) || !c.alive) continue;
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.alive = false;
      maybe_respawn(true);
      return;
    }
  }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    for (auto& c : conns_) {
      if (c->dead || !c->fd.valid()) continue;
      const std::string bytes = encode_frame(kFrameShutdown, "");
      send_all(c->fd.get(), bytes.data(), bytes.size());
    }
    conns_.clear();
    // Give clean exits a moment, then make sure nothing outlives us.
    const double deadline = steady_seconds() + 2.0;
    while (live_children() > 0 && steady_seconds() < deadline) {
      reap_children(/*allow_respawn=*/false);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (Child& c : children_) {
      if (!c.alive) continue;
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.alive = false;
    }
    listen_fd_.reset();
    if (started_) cleanup_socket(bound_);
  }

  // ---- batch ---------------------------------------------------------------

  std::vector<JobResult> run_batch(const std::vector<JobSpec>& specs) {
    lc_ = std::make_unique<JobLifecycle>(opt_.service, specs, counters_,
                                         self_.shutdown_requested_);
    pending_.clear();
    for (const JobLifecycle::Job& j : lc_->jobs())
      if (!j.finished) pending_.push_back(static_cast<int>(j.index));
    degraded_ = false;
    zero_workers_since_ = -1;
    // Workers idled between batches without anyone reading their
    // heartbeats; what is buffered in the sockets is history, not silence.
    reset_liveness_clock();

    event_loop();

    if (shutting_down()) lc_->interrupt_unfinished();
    std::vector<JobResult> results = lc_->take_results();
    lc_.reset();
    return results;
  }

  void event_loop() {
    while (lc_->unfinished() > 0 && !shutting_down()) {
      reap_children(/*allow_respawn=*/true);
      poll_once();
      if (shutting_down()) break;
      scan_heartbeats();
      run_local_only_jobs();
      dispatch();
      check_degradation();
      prune_dead_conns();
    }
  }

  void poll_once() {
    std::vector<PollFd> fds;
    fds.reserve(conns_.size() + 1);
    PollFd lf;
    lf.fd = listen_fd_.get();
    fds.push_back(lf);
    std::vector<Conn*> order;
    for (auto& c : conns_) {
      if (c->dead) continue;
      PollFd p;
      p.fd = c->fd.get();
      fds.push_back(p);
      order.push_back(c.get());
    }
    poll_wait(fds, 20);

    if (fds[0].readable) accept_pending();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const PollFd& p = fds[i + 1];
      Conn& c = *order[i];
      if (p.readable) read_conn(c);
      if (!c.dead && p.closed) on_worker_death(c, "connection closed");
    }
  }

  void accept_pending() {
    for (;;) {
      UniqueFd fd = accept_connection(listen_fd_.get());
      if (!fd.valid()) return;
      auto c = std::make_unique<Conn>();
      c->fd = std::move(fd);
      c->last_seen = steady_seconds();
      conns_.push_back(std::move(c));
    }
  }

  void read_conn(Conn& c) {
    char buf[64 * 1024];
    const long n = recv_bytes(c.fd.get(), buf, sizeof buf);
    if (n == 0 || n == -2) {
      on_worker_death(c, "connection closed");
      return;
    }
    if (n < 0) return;
    try {
      c.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      Frame f;
      while (!c.dead && c.decoder.next(&f)) handle_frame(c, f);
    } catch (const FrameError& e) {
      ++self_.dist_stats_.frame_errors;
      LOG_WARN() << "coordinator: dropping worker " << c.worker_id << ": "
                 << e.what();
      on_worker_death(c, e.what());
    }
  }

  void handle_frame(Conn& c, const Frame& f) {
    c.last_seen = steady_seconds();
    switch (f.tag) {
      case kFrameHello: {
        const HelloMsg m = decode_hello(f.payload);
        if (m.protocol_version != kProtocolVersion) {
          LOG_WARN() << "coordinator: worker speaks protocol "
                     << m.protocol_version << ", want " << kProtocolVersion
                     << "; dropping";
          on_worker_death(c, "protocol mismatch");
          return;
        }
        c.worker_id = next_worker_id_++;
        c.pid = static_cast<long>(m.pid);
        c.hello_done = true;
        ++self_.dist_stats_.workers_connected;
        send_to(c, kFrameHelloAck,
                encode_hello_ack({static_cast<std::uint32_t>(c.worker_id)}));
        break;
      }
      case kFrameHeartbeat:
        decode_heartbeat(f.payload);  // validates; last_seen already bumped
        break;
      case kFrameCheckpoint: {
        CheckpointMsg m = decode_checkpoint(f.payload);
        // Only the live attempt's checkpoints count; a settled attempt
        // still running on this worker is stale.
        if (static_cast<int>(m.job_index) != c.job ||
            !lc_->current(m.job_index, c.attempt))
          break;
        ++self_.dist_stats_.checkpoints_streamed;
        self_.dist_stats_.checkpoint_stream_bytes += m.snapshot.size();
        JobLifecycle::Job& j = lc_->jobs()[m.job_index];
        if (lc_->checkpoint_remote(j, std::move(m.snapshot))) break;
        // The mirror write failed and settled the attempt: nobody waits for
        // the rest of it, so free the worker instead of letting it run on.
        retire(c);
        if (!j.finished) pending_.push_back(static_cast<int>(j.index));
        break;
      }
      case kFrameResult: {
        const ResultMsg m = decode_result(f.payload);
        if (c.job == static_cast<int>(m.job_index)) c.job = -1;
        if (!lc_->current(m.job_index, static_cast<int>(m.attempt))) break;
        JobLifecycle::Job& j = lc_->jobs()[m.job_index];
        JobResult attempt;
        apply_result_payload(m, attempt);
        if (lc_->settle(j, m.outcome, std::move(attempt)))
          ++self_.dist_stats_.jobs_completed_remote;
        else
          pending_.push_back(static_cast<int>(j.index));
        break;
      }
      default:
        break;  // unknown tag from a newer worker: skippable by design
    }
  }

  void send_to(Conn& c, std::uint32_t tag, const std::string& payload) {
    const std::string bytes = encode_frame(tag, payload);
    if (!send_all(c.fd.get(), bytes.data(), bytes.size()))
      on_worker_death(c, "send failed");
  }

  void on_worker_death(Conn& c, const char* why) {
    if (c.dead) return;
    c.dead = true;
    ++self_.dist_stats_.workers_died;
    if (c.job >= 0 && lc_->current(c.job, c.attempt)) {
      JobLifecycle::Job& j = lc_->jobs()[c.job];
      ++self_.dist_stats_.jobs_reassigned;
      if (lc_->worker_died(j, opt_.max_worker_deaths_per_job)) {
        ++self_.dist_stats_.jobs_quarantined_remote;
        LOG_WARN() << "coordinator: job " << j.spec->id << " survived "
                   << j.worker_deaths
                   << " worker deaths; finishing it in-process";
      }
      // Front of the queue: the job resumes from its last streamed
      // checkpoint before fresh work starts.
      pending_.push_front(c.job);
    }
    c.job = -1;
    (void)why;
    kill_child_pid(c.pid);
  }

  /// Drops a worker whose attempt was settled before it reported back. Not
  /// a death: the job is not charged for it. A spawned worker is killed and
  /// replaced; a connected one sees its connection close and reconnects.
  void retire(Conn& c) {
    LOG_WARN() << "coordinator: dropping worker " << c.worker_id
               << ": its attempt was settled early";
    c.dead = true;
    c.job = -1;
    kill_child_pid(c.pid);
  }

  void scan_heartbeats() {
    if (opt_.heartbeat_timeout_s <= 0) return;
    const double now = steady_seconds();
    for (auto& c : conns_) {
      if (c->dead) continue;
      if (now - c->last_seen > opt_.heartbeat_timeout_s) {
        ++self_.dist_stats_.heartbeat_timeouts;
        LOG_WARN() << "coordinator: worker " << c->worker_id
                   << " missed its heartbeat deadline; declaring it dead";
        on_worker_death(*c, "heartbeat timeout");
      }
    }
  }

  void prune_dead_conns() {
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->dead;
                                }),
                 conns_.end());
  }

  void dispatch() {
    const double now = steady_seconds();
    for (auto& c : conns_) {
      if (c->dead || !c->hello_done || c->job >= 0) continue;
      // First pending job that is remote-eligible and past its backoff.
      auto it = std::find_if(pending_.begin(), pending_.end(), [&](int j) {
        const JobLifecycle::Job& job = lc_->jobs()[j];
        return !job.local_only && job.ready_at <= now;
      });
      if (it == pending_.end()) return;
      JobLifecycle::Job& j = lc_->jobs()[*it];
      pending_.erase(it);
      assign(*c, j);
    }
  }

  void assign(Conn& c, JobLifecycle::Job& j) {
    lc_->start(j);
    AssignMsg m;
    m.job_index = static_cast<std::uint32_t>(j.index);
    m.attempt = static_cast<std::uint32_t>(j.attempt);
    m.spec = *j.spec;
    m.snapshot = j.resume;
    c.job = static_cast<int>(j.index);
    c.attempt = j.attempt;
    send_to(c, kFrameAssign, encode_assign(m));
    // send_to may have declared the worker dead, which requeued the job.
  }

  // ---- in-process execution (quarantine + degradation) ---------------------

  void run_local_only_jobs() {
    for (;;) {
      auto it = std::find_if(pending_.begin(), pending_.end(), [&](int j) {
        return lc_->jobs()[j].local_only;
      });
      if (it == pending_.end()) return;
      const int job = *it;
      pending_.erase(it);
      lc_->run_attempts_locally(lc_->jobs()[job]);
      reset_liveness_clock();
      if (shutting_down()) return;
    }
  }

  void check_degradation() {
    if (degraded_) return;
    const bool zero_workers = conns_.empty() && live_children() == 0;
    if (!zero_workers) {
      zero_workers_since_ = -1;
      return;
    }
    const double now = steady_seconds();
    if (zero_workers_since_ < 0) zero_workers_since_ = now;
    if (now - zero_workers_since_ < opt_.degrade_grace_s) return;
    degraded_ = true;
    LOG_WARN() << "coordinator: no workers available; degrading to "
               << "in-process execution for " << pending_.size()
               << " remaining job(s)";
    // run_local_only_jobs takes them from here, in queue order.
    for (const int job : pending_) lc_->jobs()[job].local_only = true;
    self_.dist_stats_.jobs_degraded += pending_.size();
  }

  /// In-process runs block the event loop; whatever silence accumulated on
  /// worker sockets during them is the coordinator's fault, not the
  /// workers'. Reset the clocks before judging anyone.
  void reset_liveness_clock() {
    const double now = steady_seconds();
    for (auto& c : conns_) c->last_seen = now;
  }
};

Coordinator::Coordinator(const CoordinatorOptions& opt) : opt_(opt) {
  impl_ = std::make_unique<Impl>(*this);
}

Coordinator::~Coordinator() { stop(); }

SocketAddr Coordinator::start() { return impl_->start(); }

std::vector<JobResult> Coordinator::run_batch(
    const std::vector<JobSpec>& specs) {
  return impl_->run_batch(specs);
}

void Coordinator::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
}

void Coordinator::stop() {
  if (impl_) impl_->stop();
}

ServiceStats Coordinator::stats() const {
  return impl_->counters_.snapshot();
}

}  // namespace repro
