/**
 * @file
 * Tests for the live-introspection surface: Prometheus text
 * rendering (name sanitization, golden counter/gauge/histogram
 * output, cumulative "le" buckets ending in +Inf) and the MetricsHttp
 * endpoint (valid /metrics and /healthz scrapes over real sockets,
 * 404/400 error paths, per-connection isolation, and both service
 * modes — background thread and caller-driven serviceOnce).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "marlin/marlin.hh"

namespace marlin
{
namespace
{

// --- Rendering ------------------------------------------------------

TEST(Exposition, SanitizesNamesOntoPrometheusGrammar)
{
    EXPECT_EQ(obs::sanitizeMetricName("async.ring.pushed"),
              "async_ring_pushed");
    EXPECT_EQ(obs::sanitizeMetricName("a-b c/d"), "a_b_c_d");
    EXPECT_EQ(obs::sanitizeMetricName("ok_name:sub"),
              "ok_name:sub"); // Colons are legal in the grammar.
    EXPECT_EQ(obs::sanitizeMetricName("9lives"), "_9lives");
    EXPECT_EQ(obs::sanitizeMetricName(""), "_");
}

TEST(Exposition, GoldenCounterAndGauge)
{
    std::vector<obs::MetricSample> samples(2);
    samples[0].name = "serve.requests";
    samples[0].kind = obs::MetricSample::Kind::Counter;
    samples[0].count = 42;
    samples[1].name = "async.ring.depth";
    samples[1].kind = obs::MetricSample::Kind::Gauge;
    samples[1].value = -2.5;

    EXPECT_EQ(obs::renderPrometheusText(samples),
              "# HELP serve_requests MARLin metric "
              "'serve.requests'\n"
              "# TYPE serve_requests counter\n"
              "serve_requests 42\n"
              "# HELP async_ring_depth MARLin metric "
              "'async.ring.depth'\n"
              "# TYPE async_ring_depth gauge\n"
              "async_ring_depth -2.5\n");
}

TEST(Exposition, GoldenHistogramCumulativeBuckets)
{
    // Registry snapshots carry PER-BUCKET counts (2, 3, 5 overflow);
    // the exposition must accumulate them into cumulative "le"
    // series ending in +Inf, with _count equal to the +Inf bucket.
    obs::MetricSample h;
    h.name = "lat.us";
    h.kind = obs::MetricSample::Kind::Histogram;
    h.buckets = {{10.0, 2}, {100.0, 3}, {
        std::numeric_limits<double>::infinity(), 5}};
    h.count = 10;
    h.value = 123.75; // sum

    EXPECT_EQ(obs::renderPrometheusText({h}),
              "# HELP lat_us MARLin metric 'lat.us'\n"
              "# TYPE lat_us histogram\n"
              "lat_us_bucket{le=\"10\"} 2\n"
              "lat_us_bucket{le=\"100\"} 5\n"
              "lat_us_bucket{le=\"+Inf\"} 10\n"
              "lat_us_sum 123.75\n"
              "lat_us_count 10\n");
}

TEST(Exposition, HistogramWithoutOverflowBucketGainsInf)
{
    // A degenerate sample (no +Inf bucket recorded) still renders a
    // legal histogram: the +Inf series is synthesized.
    obs::MetricSample h;
    h.name = "odd";
    h.kind = obs::MetricSample::Kind::Histogram;
    h.buckets = {{1.0, 4}};
    h.count = 4;
    h.value = 2.0;
    const std::string text = obs::renderPrometheusText({h});
    EXPECT_NE(text.find("odd_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("odd_count 4\n"), std::string::npos);
}

TEST(Exposition, RegistrySnapshotRoundTrips)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.counter("test.expo.counter").reset();
    reg.counter("test.expo.counter").add(3);
    reg.histogram("test.expo.hist", {50.0, 100.0}).reset();
    reg.histogram("test.expo.hist", {50.0, 100.0}).observe(75.0);

    const std::string text = obs::renderPrometheusText();
    EXPECT_NE(text.find("test_expo_counter 3\n"), std::string::npos);
    EXPECT_NE(
        text.find("test_expo_hist_bucket{le=\"100\"} 1\n"),
        std::string::npos);
    EXPECT_NE(
        text.find("test_expo_hist_bucket{le=\"+Inf\"} 1\n"),
        std::string::npos);
}

// --- HTTP endpoint --------------------------------------------------

/** Blocking one-shot HTTP client: connect, send, read to EOF. */
std::string
httpGet(std::uint16_t port, const std::string &raw_request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, raw_request.data(), raw_request.size(), 0),
              static_cast<ssize_t>(raw_request.size()));
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

TEST(MetricsHttp, ServesScrapeAndHealthOnBackgroundThread)
{
    obs::Registry::instance().counter("test.http.counter").reset();
    obs::Registry::instance().counter("test.http.counter").add(9);

    serve::MetricsHttpConfig cfg; // port 0: ephemeral
    serve::MetricsHttp http(cfg);
    ASSERT_TRUE(http.start());
    ASSERT_NE(http.port(), 0);
    http.startThread();

    const std::string ok = httpGet(
        http.port(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(ok.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(ok.find("# TYPE test_http_counter counter"),
              std::string::npos);
    EXPECT_NE(ok.find("test_http_counter 9\n"), std::string::npos);

    const std::string health = httpGet(
        http.port(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok\n"), std::string::npos);

    EXPECT_GE(http.scrapesServed(), 1u);
    http.stop();
}

TEST(MetricsHttp, StopWakesAnIdleBackgroundLoopPromptly)
{
    // The background loop waits 50 ms per idle service turn. Stopped
    // 5 ms into that wait, a loop nobody wakes makes the join wait out
    // the other 45 ms; a woken one exits at once. The 20 ms bound
    // leaves room for a thread that is runnable but not yet scheduled
    // on a host loaded by a parallel test run.
    for (int cycle = 0; cycle < 5; ++cycle) {
        serve::MetricsHttp http;
        ASSERT_TRUE(http.start());
        http.startThread();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const auto t0 = std::chrono::steady_clock::now();
        http.stop();
        const std::chrono::duration<double, std::milli> took =
            std::chrono::steady_clock::now() - t0;
        EXPECT_LT(took.count(), 20.0) << "cycle " << cycle;
    }
}

TEST(MetricsHttp, RejectsBadPathsAndMethodsPerConnection)
{
    serve::MetricsHttpConfig cfg;
    serve::MetricsHttp http(cfg);
    ASSERT_TRUE(http.start());
    http.startThread();

    // Each response goes to its own connection: an error on one
    // never leaks into another's stream.
    EXPECT_NE(httpGet(http.port(), "GET /nope HTTP/1.0\r\n\r\n")
                  .find("HTTP/1.0 404"),
              std::string::npos);
    EXPECT_NE(httpGet(http.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                  .find("HTTP/1.0 400"),
              std::string::npos);
    EXPECT_NE(httpGet(http.port(), "garbage\r\n\r\n")
                  .find("HTTP/1.0 400"),
              std::string::npos);
    // A valid scrape still succeeds after the errors above.
    EXPECT_NE(httpGet(http.port(), "GET /metrics HTTP/1.0\r\n\r\n")
                  .find("HTTP/1.0 200 OK"),
              std::string::npos);
    http.stop();
}

TEST(MetricsHttp, ServiceOnceDrivenByCallerThread)
{
    // The async CLI drives scrapes from the supervisor's watchdog
    // tick instead of a dedicated thread: serviceOnce must make
    // progress under a polling caller.
    serve::MetricsHttpConfig cfg;
    serve::MetricsHttp http(cfg);
    ASSERT_TRUE(http.start());

    std::string response;
    std::thread client([&] {
        response = httpGet(http.port(),
                           "GET /healthz HTTP/1.0\r\n\r\n");
    });
    // Poll like the watchdog does (2ms cadence, 0ms timeout would
    // also work; a small timeout keeps the test prompt).
    for (int i = 0; i < 2000 && response.empty(); ++i)
        http.serviceOnce(2);
    client.join();
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    http.stop();
}

} // namespace
} // namespace marlin
