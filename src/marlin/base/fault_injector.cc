#include "marlin/base/fault_injector.hh"

#include <cstdio>

#include "marlin/base/logging.hh"
#include "marlin/base/string_utils.hh"

namespace marlin::base
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind)
    {
    case FaultKind::KillActor: return "kill-actor";
    case FaultKind::StallActor: return "stall-actor";
    case FaultKind::CorruptTransition: return "corrupt-transition";
    case FaultKind::KillLearner: return "kill-learner";
    case FaultKind::DelaySnapshot: return "delay-snapshot";
    }
    return "unknown";
}

bool
FaultInjector::onStep()
{
    const StepCount seen =
        steps.fetch_add(1, std::memory_order_relaxed) + 1;
    return killArmed.load(std::memory_order_acquire) &&
           seen >= killStep.load(std::memory_order_relaxed);
}

bool
FaultInjector::onWrite()
{
    const std::uint64_t seen =
        writes.fetch_add(1, std::memory_order_relaxed) + 1;
    if (writeDead.load(std::memory_order_relaxed))
        return false;
    if (failArmed.load(std::memory_order_acquire) &&
        seen >= failWrite.load(std::memory_order_relaxed))
    {
        writeDead.store(true, std::memory_order_relaxed);
        return false;
    }
    return true;
}

void
FaultInjector::scheduleFault(const FaultEvent &event)
{
    schedule.emplace_back(event);
}

namespace
{

/** Parse a non-negative integer; false on junk/empty/overflow. */
bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    std::uint64_t value = 0;
    for (const char c : s)
    {
        if (c < '0' || c > '9')
            return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

/** Strip leading/trailing whitespace ("kill:1@5, stall:..."). */
std::string
trimmed(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    return s.substr(b, e - b);
}

} // namespace

bool
FaultInjector::parseChaosSpec(const std::string &spec,
                              std::string *error)
{
    const auto fail = [error](const std::string &token,
                              const char *why) {
        if (error != nullptr)
            *error = csprintf("chaos token \"%s\": %s", token.c_str(),
                              why);
        return false;
    };

    std::vector<FaultEvent> parsed;
    for (const std::string &rawToken : tokenize(spec, ','))
    {
        const std::string token = trimmed(rawToken);
        if (token.empty())
            continue;
        const std::size_t at = token.find('@');
        if (at == std::string::npos)
            return fail(token, "missing '@<step>'");
        const std::string head = token.substr(0, at);
        const std::vector<std::string> tail =
            tokenize(token.substr(at + 1), ':');

        FaultEvent event;
        const std::vector<std::string> headParts =
            tokenize(head, ':');
        if (headParts.empty())
            return fail(token, "missing fault verb");
        const std::string &verb = headParts[0];
        if (verb == "kill" || verb == "stall" || verb == "corrupt")
        {
            std::uint64_t actor = 0;
            if (headParts.size() != 2 ||
                !parseU64(headParts[1], actor))
                return fail(token, "expected '<verb>:<actor>'");
            event.actorId = static_cast<std::size_t>(actor);
            event.kind = verb == "kill" ? FaultKind::KillActor
                         : verb == "stall"
                             ? FaultKind::StallActor
                             : FaultKind::CorruptTransition;
            if (verb == "stall")
            {
                if (tail.size() != 2 ||
                    !parseU64(tail[0], event.atStep) ||
                    !parseU64(tail[1], event.millis))
                    return fail(token,
                                "expected 'stall:<actor>@<step>:<ms>'");
            }
            else
            {
                if (tail.size() != 1 ||
                    !parseU64(tail[0], event.atStep))
                    return fail(token, "expected '@<step>'");
            }
        }
        else if (verb == "kill-learner")
        {
            if (headParts.size() != 1 || tail.size() != 1 ||
                !parseU64(tail[0], event.atStep))
                return fail(token,
                            "expected 'kill-learner@<drained>'");
            event.kind = FaultKind::KillLearner;
        }
        else if (verb == "delay-snap")
        {
            if (headParts.size() != 1 || tail.size() != 2 ||
                !parseU64(tail[0], event.atStep) ||
                !parseU64(tail[1], event.millis))
                return fail(token,
                            "expected 'delay-snap@<ordinal>:<ms>'");
            event.kind = FaultKind::DelaySnapshot;
        }
        else
        {
            return fail(token, "unknown fault verb");
        }
        parsed.push_back(event);
    }
    for (const FaultEvent &event : parsed)
        scheduleFault(event);
    return true;
}

std::vector<FaultEvent>
FaultInjector::scheduledFaults() const
{
    std::vector<FaultEvent> out;
    out.reserve(schedule.size());
    for (const ScheduledFault &slot : schedule)
        out.push_back(slot.event);
    return out;
}

bool
FaultInjector::tryFire(ScheduledFault &slot)
{
    bool expected = false;
    if (!slot.fired.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
        return false;
    trips[static_cast<std::size_t>(slot.event.kind)].fetch_add(
        1, std::memory_order_relaxed);
    return true;
}

ActorFaultAction
FaultInjector::onActorStep(std::size_t actor_id,
                           std::uint64_t local_step)
{
    ActorFaultAction action;
    for (ScheduledFault &slot : schedule)
    {
        const FaultEvent &event = slot.event;
        const bool actorKind =
            event.kind == FaultKind::KillActor ||
            event.kind == FaultKind::StallActor ||
            event.kind == FaultKind::CorruptTransition;
        if (!actorKind || event.actorId != actor_id ||
            local_step < event.atStep)
            continue;
        if (!tryFire(slot))
            continue;
        switch (event.kind)
        {
        case FaultKind::KillActor: action.kill = true; break;
        case FaultKind::StallActor:
            action.stallMs += event.millis;
            break;
        case FaultKind::CorruptTransition:
            action.corrupt = true;
            break;
        default: break;
        }
    }
    return action;
}

bool
FaultInjector::onLearnerDrain(std::uint64_t drained_total)
{
    bool kill = false;
    for (ScheduledFault &slot : schedule)
    {
        if (slot.event.kind != FaultKind::KillLearner ||
            drained_total < slot.event.atStep)
            continue;
        if (tryFire(slot))
            kill = true;
    }
    return kill;
}

std::uint64_t
FaultInjector::onSnapshotPublish(std::uint64_t ordinal)
{
    std::uint64_t delayMs = 0;
    for (ScheduledFault &slot : schedule)
    {
        if (slot.event.kind != FaultKind::DelaySnapshot ||
            ordinal < slot.event.atStep)
            continue;
        if (tryFire(slot))
            delayMs += slot.event.millis;
    }
    return delayMs;
}

bool
corruptFileByte(const std::string &path, std::uint64_t offset,
                unsigned char mask)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr)
        return false;
    if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
        std::fclose(f);
        return false;
    }
    int byte = std::fgetc(f);
    if (byte == EOF) {
        std::fclose(f);
        return false;
    }
    std::fseek(f, static_cast<long>(offset), SEEK_SET);
    const unsigned char corrupted =
        static_cast<unsigned char>(byte) ^ mask;
    std::fputc(corrupted, f);
    std::fclose(f);
    return true;
}

FailpointStreambuf::int_type
FailpointStreambuf::overflow(int_type ch)
{
    if (injector != nullptr && !injector->onWrite())
        return traits_type::eof();
    if (traits_type::eq_int_type(ch, traits_type::eof()))
        return traits_type::not_eof(ch);
    return inner->sputc(traits_type::to_char_type(ch));
}

std::streamsize
FailpointStreambuf::xsputn(const char *s, std::streamsize n)
{
    if (injector != nullptr && !injector->onWrite())
        return 0;
    return inner->sputn(s, n);
}

int
FailpointStreambuf::sync()
{
    return inner->pubsync();
}

} // namespace marlin::base
