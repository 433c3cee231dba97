package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.Reports
import repro.data.Gazetteer
import repro.jobs.JobSession
import repro.streamlog.{AlarmSerializer, Serializers}
import scala.collection.mutable.ArrayBuffer

/** The alarm-verification benchmark. One run is
  *
  * {{{ Bench --workload stream|train --seed N --seconds S --trace 0|1 }}}
  *
  * It builds its fixture and warms up (set-up, counted from JVM start), then
  * measures for about S seconds, checks every output against a reference,
  * and prints a run record and, as the last line, one JSON object with the
  * end-to-end metrics (`--trace 0`) or the per-layer metrics and the tracing
  * overhead (`--trace 1`). A traced run measures twice, untraced then
  * traced, on the same fixture.
  */
object Bench {
  lazy val cities: Vector[Gazetteer.City] = Gazetteer.universe()

  /** Scale factors as a fraction of the paper's volumes: `stream` uses the
    * bench scale (35K Sitasys alarms of history); `train` a fifth of it, as
    * a refresh costs about 20 s at any scale, nearly all of it per Spark job. */
  val StreamSf = 0.1
  val TrainSf = 0.02
  /** Seconds the paced loop runs before its measured window opens. */
  val PacedSettleSec = 4.0
  /** Sizes the drain phase, in whole batches, to take about `--seconds` at
    * the consumer's rate on the seed commit (4 cores). */
  val NominalDrainAps = 9000.0
  /** Alarms in the streaming warm-up: one balanced drain batch, enough to
    * compile every plan the consumer runs. */
  val WarmBatch = 10000
  /** Knobs of the train workload's warm-up refresh: every code path, little work. */
  val WarmKnobs = Reports.MlKnobs(rfMaxDepth = 4, rfNumTrees = 4, svmMaxIter = 5, dnnEpochs = 2)

  val EndToEndMetrics: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "throughput_aps" -> "1/s", "latency_p50_ms" -> "ms",
    "latency_p99_ms" -> "ms", "train_s" -> "s", "accuracy" -> "frac", "heap_retained_mb" -> "MB")

  private val layerShares = Seq("deserialize", "stream", "history", "ml")

  val PerLayerMetrics: Seq[(String, String)] = Seq(
    "streamlog.produce_aps" -> "1/s", "streamlog.write_us" -> "us", "streamlog.read_us" -> "us",
    "streamlog.partition_skew" -> "ratio", "streamlog.lag_max" -> "count",
    "streamlog.gen_late_p99_ms" -> "ms",
    "endtoend.batches" -> "count", "endtoend.batch_alarms_p50" -> "count",
    "endtoend.batch_ms_p50" -> "ms", "endtoend.batch_ms_p99" -> "ms") ++
    layerShares.flatMap(l => Seq(s"endtoend.${l}_s" -> "s", s"endtoend.${l}_s.share" -> "frac")) ++ Seq(
    "endtoend.poll_idle_s" -> "s",
    "docstore.ingest_s" -> "s", "history.devices_per_batch" -> "count",
    "history.rows_per_batch" -> "count",
    "ml.scored" -> "count", "ml.arc_share" -> "frac") ++
    (0 until 10).map(b => s"ml.p_true_hist.$b" -> "count") ++ Seq(
    "pipeline.prepare_s" -> "s") ++
    Seq("rf", "svm", "lr", "dnn").flatMap(a => Seq(s"ml.fit_s.$a" -> "s", s"ml.accuracy.$a" -> "frac")) ++ Seq(
    "pipeline.eval_s" -> "s",
    "textlytics.annotate_s" -> "s", "textlytics.kept_frac" -> "frac", "textlytics.risk_s" -> "s",
    "spark.jobs_per_batch" -> "count", "spark.tasks_per_batch" -> "count",
    "spark.task_run_s" -> "s", "spark.task_deser_s" -> "s", "jvm.gc_s" -> "s",
    "trace.overhead_frac" -> "frac", "trace.latency_overhead_frac" -> "frac")

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean)

  /** What a run found: its checks, and every metric it measured. */
  final case class Outcome(correct: Boolean, attempted: Long, failed: Long,
                           endToEnd: Map[String, Double], perLayer: Map[String, Double],
                           notes: Seq[String])

  def parse(args: Array[String]): Either[String, Opts] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      w <- need("workload").filterOrElse(Set("stream", "train"), "unknown workload")
      s <- need("seed").flatMap(_.toLongOption.toRight("--seed must be an integer"))
      t <- need("seconds").flatMap(_.toDoubleOption.filter(_ > 0).toRight("--seconds must be positive"))
      r <- need("trace").filterOrElse(Set("0", "1"), "--trace must be 0 or 1")
      _ <- Either.cond(args.length == 2 * kv.size, (), "unexpected arguments")
    } yield Opts(w, s, t, r == "1")
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args) match {
      case Right(o) => o
      case Left(err) => System.err.println(s"perfbench: $err"); sys.exit(2)
    }
    val spark = JobSession.spark(s"perfbench-${opts.workload}")
    val out = try {
      opts.workload match {
        case "train"  => trainRun(spark, opts)
        case "stream" => streamRun(spark, opts)
      }
    } finally spark.stop()
    val sf = if (opts.workload == "train") TrainSf else StreamSf
    println("run record: " + Json.obj(Seq(
      "workload" -> Json.str(opts.workload), "seed" -> opts.seed.toString,
      "seconds" -> Json.num(opts.seconds), "trace" -> opts.trace.toString,
      "commit" -> Json.str(sys.props.getOrElse("perfbench.commit", "unknown")),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString, "sf" -> Json.num(sf),
      "xmx_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
      "spark" -> Json.str(spark.version),
      "notes" -> out.notes.map(Json.str).mkString("[", ",", "]"))))
    val (chosen, spec) = if (opts.trace) (out.perLayer, PerLayerMetrics) else (out.endToEnd, EndToEndMetrics)
    require(chosen.keySet == spec.map(_._1).toSet,
      s"metrics measured differ from the spec: ${chosen.keySet.diff(spec.map(_._1).toSet)} / " +
        s"${spec.map(_._1).toSet.diff(chosen.keySet)}")
    println(Json.obj(Seq(
      "correct" -> out.correct.toString, "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString,
      "metrics" -> Json.obj(spec.map { case (name, unit) =>
        name -> Json.obj(Seq("value" -> Json.num(chosen(name)), "unit" -> Json.str(unit)))
      }))))
  }

  // ---------------------------------------------------------------------------
  // stream: a drain phase, then a paced phase, on one fixture
  // ---------------------------------------------------------------------------

  private def streamRun(spark: SparkSession, o: Opts): Outcome = {
    import Streaming._
    val t0 = Jvm.uptimeSec
    val fx = new Fixture(spark, o.seed, StreamSf)
    val t1 = Jvm.uptimeSec
    // One reference scoring covers every alarm of the run: the warm-up batch,
    // then per round (two when traced) the drain and the paced input.
    val settle = (PacedRate * PacedSettleSec).toInt
    val drainN = DrainBatch * math.max(2, math.round(o.seconds * NominalDrainAps / DrainBatch).toInt)
    val rounds = if (o.trace) 2 else 1
    val ins = fx.inputs((WarmBatch -> true) +:
      Seq.fill(rounds)(Seq(drainN -> true, (settle + (PacedRate * o.seconds).toInt) -> false)).flatten: _*)
    val t2 = Jvm.uptimeSec
    val warmLine = fx.newLine(Serializers.FastJsonSerializer)
    warmLine.producer.sendAll(ins.head.events)
    val warm = drain(fx, warmLine, ins.head, None)
    val t3 = Jvm.uptimeSec

    val tracedSer = new TimedSerializer(Serializers.FastJsonSerializer)
    val roundsIn = ins.tail.grouped(2).toSeq
    val plain = new Round(fx, roundsIn.head(0), roundsIn.head(1), settle, Serializers.FastJsonSerializer)
    val traced = roundsIn.drop(1).headOption.map(r => new Round(fx, r(0), r(1), settle, tracedSer))
    val t4 = Jvm.uptimeSec

    val (dp, pp) = plain.run(None, None)
    val heapMb = Jvm.retainedHeapMb
    val lat = pp.latMs.toSeq
    val endToEnd = Map(
      "setup_s" -> dp.setupSec,
      "throughput_aps" -> dp.counted / dp.wallSec,
      "latency_p50_ms" -> Stats.percentile(lat, 50),
      "latency_p99_ms" -> Stats.percentile(lat, 99),
      "train_s" -> (fx.prepareSec + fx.fitSec),
      "accuracy" -> fx.accuracy,
      "heap_retained_mb" -> heapMb)

    val tracedPhases = traced.map { r =>
      val (layers, td, tp) = tracedRound(spark, fx, r, tracedSer)
      // The refresh layers, from one light refresh after the measurement.
      val side = new Train.Fixture(spark, o.seed, TrainSf / 10)
      val refresh = refreshLayers(Train.refresh(spark, side, WarmKnobs), side.messages.size)
      side.close()
      (refresh ++ layers ++ Map(
        "trace.overhead_frac" -> ((dp.counted / dp.wallSec) / (td.counted / td.wallSec) - 1),
        "trace.latency_overhead_frac" -> latencyOverhead(pp, tp)),
        Seq(td, tp))
    }

    val phases = Seq(warm, dp, pp) ++ tracedPhases.toSeq.flatMap(_._2)
    val notes = phases.filterNot(_.ok).map(p =>
      if (p.endLag != 0) s"lag ${p.endLag} at the end of a phase"
      else if (p.lagGrew) "backlog grew during the paced window"
      else s"${p.tally.unexpected} verdicts for alarms never sent")
    Outcome(phases.forall(p => p.ok && p.tally.failed == 0),
      phases.map(_.tally.attempted).sum, phases.map(_.tally.failed).sum,
      endToEnd, tracedPhases.fold(Map.empty[String, Double])(_._1),
      Seq(f"set-up: fixture ${t1 - t0}%.1f s, reference ${t2 - t1}%.1f s, warm-up ${t3 - t2}%.1f s, " +
        f"pre-fill ${t4 - t3}%.1f s",
        s"drain: ${dp.counted} alarms in ${dp.batches.size} batches; paced latency samples: " +
        s"${lat.size} alarms in ${pp.batches.size} batches",
        "batches (alarms/ms): drain " + batchList(dp) + "; paced " + batchList(pp)) ++ notes)
  }

  private def batchList(p: Streaming.Phase): String =
    p.batches.map(b => s"${b.alarms}/${b.wallNs / 1000000}").mkString(" ")

  /** One drain phase, then one paced phase, on lines of their own. The drain
    * line is pre-filled when the round is built, in set-up. */
  private final class Round(fx: Streaming.Fixture, drainIn: Streaming.Input, pacedIn: Streaming.Input,
                            settle: Int, ser: AlarmSerializer) {
    val drainLine: Streaming.Line = fx.newLine(ser)
    val pacedLine: Streaming.Line = fx.newLine(ser)
    val produceAps: Double = drainLine.producer.sendAll(drainIn.events)
    def run(c: Option[JobGroupCounter], pc: Option[JobGroupCounter]): (Streaming.Phase, Streaming.Phase) =
      (Streaming.drain(fx, drainLine, drainIn, c), Streaming.paced(fx, pacedLine, pacedIn, settle, pc))
  }

  /** Run a round with listeners on; returns its per-layer figures and phases. */
  private def tracedRound(spark: SparkSession, fx: Streaming.Fixture, r: Round,
                          ser: TimedSerializer): (Map[String, Double], Streaming.Phase, Streaming.Phase) = {
    val sc = spark.sparkContext
    val (dc, pc) = (new JobGroupCounter(sc, "perfbench.drain"), new JobGroupCounter(sc, "perfbench.paced"))
    Seq(dc, pc).foreach(sc.addSparkListener)
    val gc0 = Jvm.gcSeconds
    val (td, tp) = r.run(Some(dc), Some(pc))
    val gcSec = Jvm.gcSeconds - gc0
    dc.settle()
    Seq(dc, pc).foreach(sc.removeSparkListener)
    (streamLayers(fx, r.pacedLine, td, tp, ser, pc, gcSec, r.produceAps), td, tp)
  }

  /** The streaming layers' figures for a traced `train` run, from a small
    * stream pass on Sitasys at the train scale, after the measurement: a
    * warm-up batch, a 2 s paced window untraced, then one traced round (one
    * drain batch, 2 s paced). The two paced windows give the tracing
    * overhead on latency. */
  private def sideStream(spark: SparkSession, seed: Long): (Map[String, Double], Seq[Streaming.Phase]) = {
    import Streaming._
    val fx = new Fixture(spark, seed, TrainSf)
    val settle = PacedRate.toInt
    val pacedN = settle + 2 * PacedRate.toInt
    val Seq(w, p0, d, p) = fx.inputs(WarmBatch -> true, pacedN -> false, DrainBatch -> true, pacedN -> false)
    val warmLine = fx.newLine(Serializers.FastJsonSerializer)
    warmLine.producer.sendAll(w.events)
    val warm = drain(fx, warmLine, w, None)
    val plain = paced(fx, fx.newLine(Serializers.FastJsonSerializer), p0, settle, None)
    val ser = new TimedSerializer(Serializers.FastJsonSerializer)
    val (layers, td, tp) = tracedRound(spark, fx, new Round(fx, d, p, settle, ser), ser)
    (layers + ("trace.latency_overhead_frac" -> latencyOverhead(plain, tp)), Seq(warm, plain, td, tp))
  }

  /** How much higher the traced paced p50 is than the untraced one. */
  private def latencyOverhead(plain: Streaming.Phase, traced: Streaming.Phase): Double =
    Stats.median(traced.latMs.toSeq) / Stats.median(plain.latMs.toSeq) - 1

  /** The figures of the refresh's own layers, from one refresh. */
  private def refreshLayers(r: Train.Refresh, messages: Int): Map[String, Double] = Map(
    "pipeline.prepare_s" -> r.prepareSec,
    "pipeline.eval_s" -> r.fits.map(_.evalSec).sum,
    "textlytics.annotate_s" -> r.annotateSec,
    "textlytics.kept_frac" -> r.annotated.size.toDouble / messages,
    "textlytics.risk_s" -> r.riskSec) ++
    r.fits.flatMap { f =>
      val k = f.algorithm.toLowerCase
      Seq(s"ml.fit_s.$k" -> f.fitSec, s"ml.accuracy.$k" -> f.accuracy)
    }

  /** Per-layer figures of a traced round: layer time and its shares over the
    * drain phase (the Fig. 12 breakdown at saturation), per-batch figures over
    * the paced window (where per-batch overhead dominates). */
  private def streamLayers(fx: Streaming.Fixture, pacedLine: Streaming.Line, d: Streaming.Phase,
                           p: Streaming.Phase, ser: TimedSerializer, pc: JobGroupCounter,
                           gcSec: Double, produceAps: Double): Map[String, Double] = {
    val dt = d.batches.map(_.timing)
    val parts = (0 until pacedLine.log.numPartitions).map(pacedLine.log.endOffset(_).toDouble)
    val layerSec = Map("deserialize" -> dt.map(_.deserializeSec).sum, "stream" -> dt.map(_.streamSec).sum,
      "history" -> dt.map(_.historySec).sum, "ml" -> dt.map(_.mlSec).sum)
    val total = layerSec.values.sum
    val bs = p.batches
    val nb = bs.size.toDouble
    val pt = bs.map(_.timing)
    val hist = Stats.unitHistogram(d.verdicts.map(_.pTrue), 10)
    Map(
      "streamlog.produce_aps" -> produceAps,
      "streamlog.write_us" -> ser.writeUs,
      "streamlog.read_us" -> ser.readUs,
      "streamlog.partition_skew" -> parts.max / (parts.sum / parts.size),
      "streamlog.lag_max" -> bs.map(_.lagBefore).max.toDouble,
      "streamlog.gen_late_p99_ms" -> Stats.percentile(p.genLateMs.toSeq, 99),
      "endtoend.batches" -> nb,
      "endtoend.batch_alarms_p50" -> Stats.median(bs.map(_.alarms.toDouble)),
      "endtoend.batch_ms_p50" -> Stats.median(bs.map(_.wallNs / 1e6)),
      "endtoend.batch_ms_p99" -> Stats.percentile(bs.map(_.wallNs / 1e6), 99),
      "endtoend.poll_idle_s" -> p.idleSec,
      "docstore.ingest_s" -> fx.ingestSec,
      "history.devices_per_batch" -> pt.map(_.nDevices.toDouble).sum / nb,
      "history.rows_per_batch" -> pt.map(_.nHistogramRows.toDouble).sum / nb,
      "ml.scored" -> d.verdicts.size.toDouble,
      "ml.arc_share" -> d.verdicts.count(_.pTrue >= Streaming.Threshold).toDouble / d.verdicts.size,
      "pipeline.prepare_s" -> fx.prepareSec,
      "ml.fit_s.lr" -> fx.fitSec, "ml.accuracy.lr" -> fx.accuracy,
      "spark.jobs_per_batch" -> pc.jobs.sum / nb,
      "spark.tasks_per_batch" -> pc.tasks.sum / nb,
      "spark.task_run_s" -> pc.taskRunMs.sum / 1e3,
      "spark.task_deser_s" -> pc.taskDeserMs.sum / 1e3,
      "jvm.gc_s" -> gcSec) ++
      layerSec.flatMap { case (l, sec) => Seq(s"endtoend.${l}_s" -> sec, s"endtoend.${l}_s.share" -> sec / total) } ++
      hist.indices.map(b => s"ml.p_true_hist.$b" -> hist(b).toDouble)
  }

  // ---------------------------------------------------------------------------
  // train
  // ---------------------------------------------------------------------------

  private def trainRun(spark: SparkSession, o: Opts): Outcome = {
    val t0 = Jvm.uptimeSec
    val fx = new Train.Fixture(spark, o.seed, TrainSf)
    val t1 = Jvm.uptimeSec
    // Warm-up: one refresh with light knobs on a tenth of the data.
    val tiny = new Train.Fixture(spark, o.seed, TrainSf / 10)
    Train.refresh(spark, tiny, WarmKnobs)
    tiny.close()
    val setupSec = Jvm.uptimeSec

    def timed(c: Option[JobGroupCounter]): Seq[Train.Refresh] = {
      val reps = ArrayBuffer.empty[Train.Refresh]
      val t0 = System.nanoTime()
      while (reps.isEmpty || (System.nanoTime() - t0) / 1e9 < o.seconds)
        reps += c.fold(Train.refresh(spark, fx))(_.within(Train.refresh(spark, fx)))
      reps.toSeq
    }
    val reps = timed(None)
    val heapMb = Jvm.retainedHeapMb
    val med = Stats.median(reps.map(_.wallSec))
    val last = reps.last
    val endToEnd = Map(
      "setup_s" -> setupSec,
      "throughput_aps" -> fx.nAlarms / med,
      "latency_p50_ms" -> med * 1e3,
      "latency_p99_ms" -> Stats.percentile(reps.map(_.wallSec), 99) * 1e3,
      "train_s" -> med,
      "accuracy" -> last.fits.map(_.accuracy).sum / last.fits.size,
      "heap_retained_mb" -> heapMb)

    val (perLayer, tracedReps, sidePhases) =
      if (!o.trace) (Map.empty[String, Double], Nil, Nil) else {
        val counter = new JobGroupCounter(spark.sparkContext, "perfbench.refresh")
        spark.sparkContext.addSparkListener(counter)
        val gc0 = Jvm.gcSeconds
        val tr = timed(Some(counter))
        val gcSec = Jvm.gcSeconds - gc0
        counter.settle()
        spark.sparkContext.removeSparkListener(counter)
        val (stream, sidePhases) = sideStream(spark, o.seed)
        (stream ++ refreshLayers(tr.last, fx.messages.size) ++ Map(
          "spark.jobs_per_batch" -> counter.jobs.sum / tr.size.toDouble,
          "spark.tasks_per_batch" -> counter.tasks.sum / tr.size.toDouble,
          "spark.task_run_s" -> counter.taskRunMs.sum / 1e3,
          "spark.task_deser_s" -> counter.taskDeserMs.sum / 1e3,
          "jvm.gc_s" -> gcSec,
          "trace.overhead_frac" -> (Stats.median(tr.map(_.wallSec)) / Stats.median(reps.map(_.wallSec)) - 1)),
          tr, sidePhases)
      }

    // Six checks per refresh: one per model, the annotation, the risk factors.
    val all = reps ++ tracedReps
    val first = all.head
    val failures = all.map { r =>
      r.fits.zip(first.fits).collect {
        case (f, f0) if f.accuracy <= 0.5 || f.accuracy != f0.accuracy => s"${f.algorithm} accuracy ${f.accuracy}"
      } ++ (if (r.annotated == first.annotated) Nil else Seq("annotation differs between refreshes")) ++
        r.riskErrors.headOption.map(e => s"risk factors: $e (${r.riskErrors.size} in all)")
    }
    Outcome(failures.forall(_.isEmpty) && sidePhases.forall(p => p.ok && p.tally.failed == 0),
      all.size * 6L + sidePhases.map(_.tally.attempted).sum,
      failures.map(_.size).sum.toLong + sidePhases.map(_.tally.failed).sum, endToEnd, perLayer,
      Seq(f"set-up: fixture ${t1 - t0}%.1f s, warm-up ${setupSec - t1}%.1f s",
        s"refreshes timed: ${reps.size}; the last: ${reps.last.stages}") ++ failures.flatten.distinct)
  }
}

/** Minimal JSON rendering for the result line. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a number")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
