package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class HelpersSpec extends AnyFunSuite {

  test("percentiles are nearest-rank") {
    val xs = (1 to 100).map(_.toDouble).reverse
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(xs, 99) == 99.0)
    assert(Stats.percentile(xs, 100) == 100.0)
    assert(Stats.percentile(xs, 0) == 1.0)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.0)
    assert(Stats.percentile(Seq(7.0), 99) == 7.0)
    intercept[IllegalArgumentException](Stats.percentile(Nil, 50))
  }

  test("unit histogram puts 1.0 into the last bin") {
    val h = Stats.unitHistogram(Seq(0.0, 0.05, 0.1, 0.55, 0.999, 1.0), 10)
    assert(h.toSeq == Seq(2L, 1L, 0L, 0L, 0L, 1L, 0L, 0L, 0L, 2L))
  }

  test("tally: exactly once, within tolerance, same routing") {
    val ref = Seq(Verdict(1, 0.7, 1.0), Verdict(2, 0.2, 0.0), Verdict(3, 0.5, 1.0),
      Verdict(4, 0.9, 1.0), Verdict(5, 0.1, 0.0)).map(v => v.id -> v).toMap
    val t = new Tally(ref, threshold = 0.5)
    assert(t.record(Verdict(1, 0.7 + 1e-12, 1.0)))
    assert(!t.record(Verdict(1, 0.7, 1.0)), "a second delivery fails")
    assert(!t.record(Verdict(2, 0.2 + 1e-6, 0.0)), "p_true beyond 1e-9")
    assert(!t.record(Verdict(3, 0.5 - 1e-12, 1.0)), "routed away from the ARC")
    assert(!t.record(Verdict(5, 0.1, 1.0)), "prediction differs")
    assert(!t.record(Verdict(99, 0.5, 1.0)), "never sent")
    assert(t.attempted == 5 && t.unexpected == 1)
    assert(t.correct == 0 && t.failed == 5)
    assert(!t.isCorrect(4))

    val clean = new Tally(ref, threshold = 0.5)
    ref.values.foreach(v => assert(clean.record(v)))
    assert(clean.correct == 5 && clean.failed == 0)
    clean.fail(Seq(2L))
    assert(clean.correct == 4 && clean.failed == 1)
  }

  test("arguments") {
    val ok = Bench.parse(Array("--workload", "stream", "--seed", "7", "--seconds", "10", "--trace", "1"))
    assert(ok == Right(Bench.Opts("stream", 7L, 10.0, trace = true)))
    assert(Bench.parse(Array("--workload", "other", "--seed", "7", "--seconds", "10", "--trace", "0")).isLeft)
    assert(Bench.parse(Array("--workload", "train", "--seed", "x", "--seconds", "10", "--trace", "0")).isLeft)
    assert(Bench.parse(Array("--workload", "train", "--seed", "1", "--trace", "0")).isLeft)
  }

  test("BENCHMARK.json names exactly the metrics the runs report") {
    val spec = new com.fasterxml.jackson.databind.ObjectMapper()
      .readTree(new java.io.File("../BENCHMARK.json"))
    def metrics(key: String) = {
      val it = spec.get(key).elements()
      Iterator.continually(it).takeWhile(_.hasNext).map(_.next())
        .map(m => m.get("name").asText -> m.get("unit").asText).toSeq
    }
    assert(metrics("end_to_end") == Bench.EndToEndMetrics)
    assert(metrics("per_layer") == Bench.PerLayerMetrics)
  }
}
