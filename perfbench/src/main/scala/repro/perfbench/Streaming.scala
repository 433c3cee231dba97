package repro.perfbench

import java.util.concurrent.locks.LockSupport
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.{AlarmPipeline, EndToEnd, VerificationService}
import repro.data.AlarmSynth
import repro.docstore.{AlarmHistory, DocStore}
import repro.ml.{Metrics, SparkClassifiers}
import repro.streamlog.{AlarmEvent, AlarmSerializer, EmbeddedLog, LogProducer}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The two streaming workloads: `drain` (closed loop over a pre-filled log)
  * and `paced` (open loop: a generator thread sends on a fixed schedule while
  * the consumer verifies whatever is in the log). */
object Streaming {
  val Partitions = 8
  val DrainBatch = 25000
  val PacedRate = 2000.0
  val Threshold = 0.5
  val BucketSec = 3600L
  /** How far back `EndToEnd` asks for history: 30 days before the oldest
    * alarm of the batch. */
  val HistoryWindowSec: Long = 30L * 86400

  /** Alarms to send, and their verdicts from one reference scoring. */
  final case class Input(events: IndexedSeq[AlarmEvent], reference: Map[Long, Verdict]) {
    private val firstId = events.headOption.map(_.id).getOrElse(0L)
    def event(id: Long): Option[AlarmEvent] = {
      val i = id - firstId
      if (i >= 0 && i < events.length) Some(events(i.toInt)) else None
    }
  }

  /** A log with its producer and consumer, fresh for each phase. */
  final class Line(val log: EmbeddedLog, val producer: LogProducer, val e2e: EndToEnd)

  /** One `consumeBatch`: when it started and returned, the backlog before it,
    * the timing it reported and the verdicts that reached the sink. */
  final case class Batch(startNs: Long, endNs: Long, lagBefore: Long, timing: EndToEnd#BatchTiming,
                         verdicts: Seq[Verdict]) {
    def alarms: Long = verdicts.size.toLong
    def wallNs: Long = endNs - startNs
  }

  /** What one timed phase produced. Latencies (paced only), batches and
    * `counted` (the correctly verified alarms) cover the measured window; the
    * tally, `verdicts` and the consumer's idle time cover the whole phase.
    * The tally is taken after the phase, so its checks are not timed.
    * `setupSec` is the JVM's uptime when the window opened. */
  final class Phase(val tally: Tally, val batches: Seq[Batch], val latMs: Array[Double],
                    val wallSec: Double, val idleSec: Double, val genLateMs: Array[Double],
                    val lagGrew: Boolean, val endLag: Long, val verdicts: Seq[Verdict],
                    val counted: Long, val setupSec: Double) {
    def ok: Boolean = !lagGrew && endLag == 0 && tally.unexpected == 0
  }

  /** Everything the streaming workloads share: synthetic Sitasys alarms, the
    * serving LR model, the ingested history and the scoring sink. */
  final class Fixture(spark: SparkSession, seed: Long, sf: Double) {
    private val labeled: DataFrame = AlarmPipeline.labelByDuration(
      AlarmSynth.sitasys(spark, sf, seed = seed, cities = Bench.cities), 1).cache()
    private val base: Array[Row] = labeled.select("device_addr", "zip", "ts", "day_of_week",
      "hour_of_day", "alarm_type", "property_type", "sensor_type", "sw_version", "duration_sec")
      .collect()
    private val t1 = System.nanoTime()
    private val prepared = AlarmPipeline.prepare(labeled, AlarmPipeline.featuresFor("sitasys"))
    private val t2 = System.nanoTime()
    private val lr = SparkClassifiers.Logistic().fit(prepared.train)
    private val t3 = System.nanoTime()
    val prepareSec: Double = (t2 - t1) / 1e9
    val fitSec: Double = (t3 - t2) / 1e9
    val accuracy: Double = Metrics.accuracy(lr.transform(prepared.test))
    private val service = new VerificationService(prepared.encoder, lr, Threshold)

    private val history = new AlarmHistory(spark, new DocStore(spark))
    private val t4 = System.nanoTime()
    history.ingest(labeled)
    val ingestSec: Double = (System.nanoTime() - t4) / 1e9
    private val refHistory = new RefHistory(base.map(r => (r.getString(0), r.getTimestamp(2).getTime / 1000)))

    private val sink = new ScoreSink(spark)
    private val scoring = new VerificationService(prepared.encoder, sink.wrap(lr), Threshold)
    private val rng = new Random(seed)
    private var nextId = 0L

    def newLine(ser: AlarmSerializer): Line = {
      val log = new EmbeddedLog(Partitions)
      new Line(log, new LogProducer(log, ser), new EndToEnd(spark, log, ser, history, scoring, BucketSec))
    }

    /** Fresh alarms with new ids, drawn from the synthetic set: one input per
      * (size, balanced) pair, all scored together by one `service.verify`.
      * A balanced input puts the same number of alarms into every partition
      * (by the log's key hash), so that a drain in fixed-size batches ends on
      * a full batch instead of a small remainder whose size depends on the
      * seed. */
    def inputs(specs: (Int, Boolean)*): Seq[Input] = {
      val evs = specs.map { case (n, balanced) => draw(n, balanced) }
      val ref = reference(evs.flatten)
      evs.map(e => Input(e, e.iterator.map(a => a.id -> ref(a.id)).toMap))
    }

    private def draw(n: Int, balanced: Boolean): IndexedSeq[AlarmEvent] = {
      val quota = Array.fill(Partitions)(if (balanced) n / Partitions else n)
      val out = ArrayBuffer.empty[AlarmEvent]
      while (out.size < n) {
        val r = base(rng.nextInt(base.length))
        val p = if (balanced) math.floorMod(r.getString(0).hashCode, Partitions) else 0
        if (quota(p) > 0) {
          quota(p) -= 1
          nextId += 1
          out += AlarmEvent(nextId, r.getString(0), r.getString(1), r.getTimestamp(2).getTime / 1000,
            r.getInt(3), r.getInt(4), r.getString(5), r.getString(6), r.getString(7),
            r.getString(8), r.getDouble(9))
        }
      }
      out.toIndexedSeq
    }

    private def reference(evs: Seq[AlarmEvent]): Map[Long, Verdict] = {
      import spark.implicits._
      val df = Seq("deviceAddr" -> "device_addr", "tsEpoch" -> "ts_epoch",
        "dayOfWeek" -> "day_of_week", "hourOfDay" -> "hour_of_day", "alarmType" -> "alarm_type",
        "propertyType" -> "property_type", "sensorType" -> "sensor_type",
        "swVersion" -> "sw_version", "durationSec" -> "duration_sec")
        .foldLeft(spark.sparkContext.parallelize(evs).toDF()) { case (d, (a, b)) => d.withColumnRenamed(a, b) }
      service.verify(df).select("id", "p_true", "prediction").collect()
        .map(r => r.getLong(0) -> Verdict(r.getLong(0), r.getDouble(1), r.getDouble(2))).toMap
    }

    /** Consume one micro-batch, timed, and take what reached the sink. */
    def step(line: Line, counter: Option[JobGroupCounter], maxPerPartition: Int): Batch = {
      val lag = line.e2e.lag
      val b0 = System.nanoTime()
      val bt = counter.fold(line.e2e.consumeBatch(maxPerPartition))(_.within(line.e2e.consumeBatch(maxPerPartition)))
      val b1 = System.nanoTime()
      Batch(b0, b1, lag, bt, sink.drain())
    }

    /** Check a phase's batches against the reference: every verdict, and
      * each batch's alarm, device and histogram-row counts. */
    def check(in: Input, batches: Seq[Batch]): Tally = {
      val tally = new Tally(in.reference, Threshold)
      for (b <- batches) {
        b.verdicts.foreach(tally.record)
        val evs = b.verdicts.flatMap(v => in.event(v.id))
        val devices = evs.map(_.deviceAddr).distinct
        val histOk = evs.isEmpty || b.timing.nHistogramRows ==
          refHistory.histogramRows(devices, evs.map(_.tsEpoch).min - HistoryWindowSec, BucketSec)
        if (b.timing.nAlarms != b.alarms || b.timing.nDevices != devices.size || !histOk)
          tally.fail(b.verdicts.map(_.id))
      }
      tally
    }
  }

  /** Closed loop: drain a pre-filled log in fixed-size batches. */
  def drain(f: Fixture, line: Line, in: Input, counter: Option[JobGroupCounter]): Phase = {
    val batches = ArrayBuffer.empty[Batch]
    val setupSec = Jvm.uptimeSec
    val t0 = System.nanoTime()
    while (line.e2e.lag > 0)
      batches += f.step(line, counter, DrainBatch / Partitions)
    val wallSec = (System.nanoTime() - t0) / 1e9
    val tally = f.check(in, batches.toSeq)
    new Phase(tally, batches.toSeq, Array.empty, wallSec, 0.0, Array.empty, lagGrew = false,
      line.e2e.lag, batches.flatMap(_.verdicts).toSeq, tally.correct, setupSec)
  }

  /** Open loop: a generator thread sends `in.events` at [[PacedRate]] on a
    * fixed schedule, whatever the consumer does, while this thread consumes
    * whenever the log has a backlog. The alarms before `windowFrom` let the
    * loop settle; the window measured starts at the first one after. An
    * alarm's latency runs from its scheduled send time to the return of the
    * `consumeBatch` whose sink received it. */
  def paced(f: Fixture, line: Line, in: Input, windowFrom: Int,
            counter: Option[JobGroupCounter]): Phase = {
    val n = in.events.length
    val late = new Array[Double](n)
    val start = System.nanoTime() + 10000000L
    def due(i: Int): Long = start + (i * 1e9 / PacedRate).toLong
    val winStart = due(windowFrom)
    val winHalf = winStart + (due(n - 1) - winStart) / 2
    val gen = new Thread(() => {
      var i = 0
      while (i < n) {
        val d = due(i)
        var now = System.nanoTime()
        while (now < d) { LockSupport.parkNanos(d - now); now = System.nanoTime() }
        line.producer.send(in.events(i))
        late(i) = (now - d) / 1e6
        i += 1
      }
    }, "perfbench-generator")
    gen.setDaemon(true)
    gen.start()

    val batches = ArrayBuffer.empty[Batch]
    var idleNs = 0L
    while (gen.isAlive || line.e2e.lag > 0) {
      if (line.e2e.lag == 0) {
        val t = System.nanoTime()
        LockSupport.parkNanos(200000L)
        idleNs += System.nanoTime() - t
      } else batches += f.step(line, counter, 100000)
    }
    gen.join()
    val setupSec = Jvm.uptimeSec - (System.nanoTime() - winStart) / 1e9
    val all = batches.toSeq
    val tally = f.check(in, all)
    val completed = new Array[Long](n)
    val firstId = in.events.head.id
    for (b <- all; v <- b.verdicts) {
      val i = v.id - firstId
      if (i >= 0 && i < n) completed(i.toInt) = b.endNs
    }
    val window = windowFrom until n
    // Sustainable means the backlog seen before each batch does not grow
    // from the first half of the window to the second.
    def meanLag(bs: Seq[Batch]) = if (bs.isEmpty) 0.0 else bs.map(_.lagBefore.toDouble).sum / bs.size
    val (first, second) = all.filter(_.startNs >= winStart).partition(_.startNs < winHalf)
    new Phase(tally, first ++ second,
      window.filter(completed(_) > 0).map(i => (completed(i) - due(i)) / 1e6).toArray,
      (window.map(completed(_)).max - winStart) / 1e9, idleNs / 1e9,
      window.map(late(_)).toArray,
      lagGrew = meanLag(second) > 1.5 * meanLag(first) + PacedRate * 0.05,
      line.e2e.lag, all.flatMap(_.verdicts),
      window.count(i => tally.isCorrect(in.events(i).id)).toLong, setupSec)
  }
}
