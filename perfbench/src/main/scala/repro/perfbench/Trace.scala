package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.LongAdder
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.streamlog.{AlarmEvent, AlarmSerializer}
import scala.collection.concurrent.TrieMap
import scala.jdk.CollectionConverters._

/** Delegating codec that times every call into the wrapped one. */
final class TimedSerializer(inner: AlarmSerializer) extends AlarmSerializer {
  val writes, writeNs, reads, readNs = new LongAdder
  def name: String = inner.name
  def write(a: AlarmEvent): String = {
    val t = System.nanoTime()
    val s = inner.write(a)
    writeNs.add(System.nanoTime() - t); writes.increment()
    s
  }
  def read(s: String): AlarmEvent = {
    val t = System.nanoTime()
    val a = inner.read(s)
    readNs.add(System.nanoTime() - t); reads.increment()
    a
  }
  def writeUs: Double = if (writes.sum == 0) 0.0 else writeNs.sum / 1e3 / writes.sum
  def readUs: Double = if (reads.sum == 0) 0.0 else readNs.sum / 1e3 / reads.sum
}

/** Counts the Spark jobs and tasks run under one job group, which the
  * benchmark sets around each call it traces. */
final class JobGroupCounter(sc: SparkContext, val group: String) extends SparkListener {
  private val stages = TrieMap.empty[Int, Unit]
  val jobs, tasks, taskRunMs, taskDeserMs = new LongAdder

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) {
      jobs.increment()
      e.stageIds.foreach(stages.put(_, ()))
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (stages.contains(e.stageId)) {
      tasks.increment()
      Option(e.taskMetrics).foreach { m =>
        taskRunMs.add(m.executorRunTime); taskDeserMs.add(m.executorDeserializeTime)
      }
    }

  /** Run `body` with this counter's job group set on the calling thread. */
  def within[T](body: => T): T = {
    sc.setJobGroup(group, group, interruptOnCancel = false)
    try body finally sc.clearJobGroup()
  }

  /** Wait until the listener bus has delivered every event posted so far. */
  def settle(): Unit = org.apache.spark.PerfbenchAccess.waitForListeners(sc)
}

object Jvm {
  /** Total collection time of all garbage collectors so far, in seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Heap in use after a full collection, in MB. */
  def retainedHeapMb: Double = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    (rt.totalMemory - rt.freeMemory) / (1024.0 * 1024.0)
  }

  /** Seconds since this JVM started. */
  def uptimeSec: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
}
