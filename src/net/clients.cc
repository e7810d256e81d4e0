#include "net/clients.h"

#include <algorithm>
#include <cmath>

#include "obs/probes.h"

namespace smtos {

std::uint32_t
specWebFileBytes(int file_id)
{
    // SPECWeb96 classes: files within a class step linearly through
    // nine sizes (0.1..0.9KB, 1..9KB, 10..90KB, 100..900KB).
    static const std::uint32_t base[4] = {102, 1024, 10240, 102400};
    const int cls = file_id & 3;
    const int step = 1 + (file_id >> 2) % 9;
    return base[cls] * static_cast<std::uint32_t>(step);
}

int
specWebPickFile(Rng &rng, int num_files)
{
    // Class access mix: 35% / 50% / 14% / 1%.
    const double u = rng.uniform();
    int cls;
    if (u < 0.35)
        cls = 0;
    else if (u < 0.85)
        cls = 1;
    else if (u < 0.99)
        cls = 2;
    else
        cls = 3;
    const int per_class = num_files / 4;
    const int idx = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(per_class > 0 ? per_class : 1)));
    return idx * 4 + cls;
}

ClientPopulation::ClientPopulation(const SpecWebParams &params,
                                   std::uint64_t seed)
    : params_(params), rng_(seed),
      latency_(0, 4 * 1024 * 1024, 256),
      retriedLatency_(0, 4 * 1024 * 1024, 256)
{
    clients_.resize(static_cast<size_t>(params_.numClients));
    // Stagger the first requests so load ramps in smoothly.
    for (size_t i = 0; i < clients_.size(); ++i)
        clients_[i].nextRequestAt = rng_.below(params_.thinkMean + 1);
}

Cycle
ClientPopulation::drawThink(Cycle now)
{
    // Exponential-ish think time.
    const double u = rng_.uniform();
    const auto think = static_cast<Cycle>(
        -static_cast<double>(params_.thinkMean) *
        (u > 0.0001 ? std::log(u) : -9.0));
    return now + 1 + think;
}

void
ClientPopulation::setOpenLoop(const OpenLoopParams &p)
{
    openLoop_ = p;
    if (!p.enabled)
        return;
    // Overload dynamics knobs: the closed-loop defaults (400k timeout,
    // 6 retries) are tuned for fault recovery, not for short overload
    // measurement windows.
    if (p.retryTimeout > 0)
        params_.retryTimeout = p.retryTimeout;
    if (p.maxRetries > 0)
        params_.maxRetries = p.maxRetries;
    arrivalRng_ = Rng(p.seed);
    arrivalInit_ = false;
    nextArrivalAt_ = 0;
    rampStartAt_ = 0;
}

Cycle
ClientPopulation::drawArrivalGap(Cycle at)
{
    double factor = 1.0;
    switch (openLoop_.kind) {
      case ArrivalKind::Poisson:
        break;
      case ArrivalKind::Bursty: {
        const Cycle period = openLoop_.burstPeriod;
        const Cycle phase = period ? at % period : 0;
        if (static_cast<double>(phase) <
            openLoop_.burstDuty * static_cast<double>(period))
            factor = openLoop_.burstFactor;
        break;
      }
      case ArrivalKind::Ramp: {
        const double t =
            openLoop_.rampCycles
                ? std::min(1.0, static_cast<double>(at - rampStartAt_) /
                                    static_cast<double>(
                                        openLoop_.rampCycles))
                : 1.0;
        factor = openLoop_.rampStartFactor +
                 (1.0 - openLoop_.rampStartFactor) * t;
        break;
      }
    }
    const double rate = openLoop_.ratePerMcycle * factor;
    const double meanGap = 1e6 / (rate > 1e-9 ? rate : 1e-9);
    const double u = arrivalRng_.uniform();
    const auto gap = static_cast<Cycle>(
        -meanGap * (u > 0.0001 ? std::log(u) : -9.0));
    return gap > 0 ? gap : 1;
}

void
ClientPopulation::dispatchArrival(Cycle now, Network &net)
{
    // Claim an idle client port round-robin; an arrival finding none
    // means offered load exceeded even the port capacity.
    const int n = static_cast<int>(clients_.size());
    int port = -1;
    for (int k = 0; k < n; ++k) {
        const int cand = (nextPort_ + k) % n;
        if (clients_[static_cast<size_t>(cand)].state ==
            Client::State::Thinking) {
            port = cand;
            break;
        }
    }
    if (port < 0) {
        ++arrivalOverflows_;
        return;
    }
    nextPort_ = (port + 1) % n;
    Client &c = clients_[static_cast<size_t>(port)];
    const int file = specWebPickFile(arrivalRng_, params_.numFiles);
    // Conditional draws: a zero percentage costs zero RNG, so the
    // arrival schedule for (say) slowPct=0 matches a build without
    // the knob.
    const bool keepAlive =
        openLoop_.keepAlivePct > 0.0 &&
        arrivalRng_.uniform() < openLoop_.keepAlivePct;
    const bool slow = openLoop_.slowPct > 0.0 &&
                      arrivalRng_.uniform() < openLoop_.slowPct;
    Packet p;
    p.client = port;
    p.open = true;
    p.fileId = file;
    p.bytes = keepAlive
                  ? params_.requestBytesMin
                  : static_cast<std::uint32_t>(arrivalRng_.range(
                        params_.requestBytesMin,
                        params_.requestBytesMax));
    p.reqSeq = ++c.reqSeq;
    net.clientSend(p);
    if (probes_)
        probes_->reqIssue(p.client, p.reqSeq, now);
    c.state = Client::State::Waiting;
    c.respRemaining = specWebFileBytes(file);
    c.lastRequest = p;
    c.issuedAt = now;
    c.timeoutAt = now + params_.retryTimeout;
    c.retries = 0;
    c.slow = slow;
    c.drainDoneAt = 0;
    ++requestsIssued_;
}

void
ClientPopulation::completeRequest(Client &c, int clientId, Cycle now)
{
    c.respRemaining = 0;
    c.state = Client::State::Thinking;
    if (!openLoop_.enabled)
        c.nextRequestAt = drawThink(now);
    if (probes_)
        probes_->reqComplete(clientId, c.reqSeq, c.retries > 0, now);
    if (c.retries > 0) {
        retriedLatency_.sample(
            static_cast<std::int64_t>(now - c.issuedAt));
        ++retried_;
    } else {
        latency_.sample(static_cast<std::int64_t>(now - c.issuedAt));
    }
    ++responses_;
}

void
ClientPopulation::tick(Cycle now, Network &net)
{
    // Consume response packets first.
    while (net.clientHasRx()) {
        Packet p = net.popClientRx();
        if (p.client < 0 ||
            p.client >= static_cast<int>(clients_.size()))
            continue;
        Client &c = clients_[static_cast<size_t>(p.client)];
        if (c.state != Client::State::Waiting)
            continue;
        // A stale response (delayed past a retransmit-then-abandon, or
        // duplicated by a retransmit race) must not be credited to the
        // client's current request. Open-loop mode always filters:
        // give-ups are routine there, and goodput() depends on an
        // aborted sequence never completing.
        if ((recovery_ || openLoop_.enabled) && p.reqSeq != c.reqSeq)
            continue;
        if (c.respRemaining <= p.bytes || p.fin) {
            if (openLoop_.enabled && c.slow) {
                // Slow client: the server is done sending, but the
                // client drains the response at a bounded rate; the
                // request completes only when the drain finishes.
                c.respRemaining = 0;
                c.state = Client::State::Draining;
                const std::uint64_t kb =
                    (specWebFileBytes(c.lastRequest.fileId) + 1023) /
                    1024;
                c.drainDoneAt =
                    now + openLoop_.slowDrainPerKb * (kb ? kb : 1);
                c.timeoutAt = c.drainDoneAt;
            } else {
                completeRequest(c, p.client, now);
            }
        } else {
            c.respRemaining -= p.bytes;
            // Forward progress re-arms the response timeout.
            if (recovery_ || openLoop_.enabled)
                c.timeoutAt = now + params_.retryTimeout;
        }
    }

    if (!openLoop_.enabled) {
        // Closed loop: issue due requests after think time.
        for (size_t i = 0; i < clients_.size(); ++i) {
            Client &c = clients_[i];
            if (c.state != Client::State::Thinking ||
                c.nextRequestAt > now)
                continue;
            const int file = specWebPickFile(rng_, params_.numFiles);
            Packet p;
            p.client = static_cast<int>(i);
            p.open = true;
            p.fileId = file;
            p.bytes = static_cast<std::uint32_t>(
                rng_.range(params_.requestBytesMin,
                           params_.requestBytesMax));
            p.reqSeq = ++c.reqSeq;
            net.clientSend(p);
            if (probes_)
                probes_->reqIssue(p.client, p.reqSeq, now);
            c.state = Client::State::Waiting;
            c.respRemaining = specWebFileBytes(file);
            c.lastRequest = p;
            c.issuedAt = now;
            c.timeoutAt = now + params_.retryTimeout;
            c.retries = 0;
            ++requestsIssued_;
        }
    } else {
        // Slow-client drains that finished by now complete here, with
        // latency sampled at the drain end, not the server's fin.
        for (size_t i = 0; i < clients_.size(); ++i) {
            Client &c = clients_[i];
            if (c.state == Client::State::Draining &&
                c.drainDoneAt <= now) {
                completeRequest(c, static_cast<int>(i), now);
                ++slowCompletions_;
            }
        }
        // Open loop: arrivals fire on their own schedule, regardless
        // of how many requests are outstanding.
        if (!arrivalInit_) {
            arrivalInit_ = true;
            rampStartAt_ = now;
            nextArrivalAt_ = now + drawArrivalGap(now);
        }
        while (nextArrivalAt_ <= now) {
            const Cycle at = nextArrivalAt_;
            ++arrivals_;
            dispatchArrival(now, net);
            nextArrivalAt_ = at + drawArrivalGap(at);
        }
    }

    if (!recovery_ && !openLoop_.enabled)
        return;

    // Timeout scan: retransmit with capped exponential backoff, give
    // up after maxRetries. Retransmits reuse the request verbatim
    // (same reqSeq), so a late original response still counts.
    for (Client &c : clients_) {
        if (c.state != Client::State::Waiting || c.timeoutAt > now)
            continue;
        if (c.retries < params_.maxRetries) {
            ++c.retries;
            const int shift = c.retries < 4 ? c.retries : 4;
            c.timeoutAt = now + (params_.retryTimeout << shift);
            // The server treats the retransmit as a fresh connection
            // open; any half-served prior attempt expects the full
            // file again.
            c.respRemaining = specWebFileBytes(c.lastRequest.fileId);
            net.clientSend(c.lastRequest);
            if (probes_)
                probes_->reqRetransmit(c.lastRequest.client, c.reqSeq,
                                       now);
            ++retransmits_;
        } else {
            c.state = Client::State::Thinking;
            c.respRemaining = 0;
            if (!openLoop_.enabled)
                c.nextRequestAt = drawThink(now);
            if (probes_)
                probes_->reqAbort(c.lastRequest.client, c.reqSeq, now);
            ++aborts_;
        }
    }
}

} // namespace smtos
